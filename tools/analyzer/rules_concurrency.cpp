// Lock-discipline rule family (DESIGN.md section 14).
//
// Per file: a brace/scope tracker follows every std::lock_guard /
// unique_lock / scoped_lock declaration from its acquisition site to the
// end of its enclosing scope (explicit .unlock()/.lock() toggles are
// honoured), normalizing the mutex expression ("this->" dropped, index
// and call argument lists elided) into a node name. While at least one
// lock is held, blocking operations are reported (blocking-while-locked):
// file I/O and stream construction, thread .join(), pool parallel_for,
// global-qualified socket syscalls, frame-transport helpers, in-process
// GuardbandServer entry points, and condition_variable waits that either
// park a different mutex than the ones held or keep a second lock held
// across the wait. Logging (fprintf/fputs) is deliberately NOT a blocking
// sink: the bench sweep logs progress under its metrics mutex by design.
//
// Across files: nested acquisitions contribute held->acquired edges to a
// lock-order graph merged over every analyzed TU; an edge whose endpoints
// lie on a directed cycle (including self-edges: re-acquiring a held
// mutex) is reported at each acquisition site (lock-order-cycle).

#include <array>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyzer/analyzer.hpp"
#include "analyzer/token_scan.hpp"

namespace taf::analyze {

namespace {

using detail::join_tokens;
using detail::match_close;
using detail::match_template_close;
using detail::rule_wanted;

const std::array<const char*, 3> kGuardTypes = {"lock_guard", "unique_lock",
                                                "scoped_lock"};
const std::array<const char*, 7> kFileIo = {"fopen",  "fread", "fwrite", "fclose",
                                            "fflush", "fgets", "fseek"};
const std::array<const char*, 3> kStreamCtors = {"ifstream", "ofstream", "fstream"};
const std::array<const char*, 8> kSyscalls = {"read",   "write",  "recv",   "send",
                                              "accept", "connect", "poll",  "select"};
const std::array<const char*, 4> kTransport = {"write_all", "read_exact", "write_frame",
                                               "read_frame"};
const std::array<const char*, 5> kServerEntry = {"serve_payload", "serve_frame",
                                                 "handle_batch", "handle_trace_batch",
                                                 "drain_metrics"};

bool in_list(const std::string& s, const char* const* names, std::size_t count) {
  for (std::size_t k = 0; k < count; ++k)
    if (s == names[k]) return true;
  return false;
}

struct ActiveLock {
  std::string var;   // guard variable name
  std::string node;  // normalized mutex expression
  int line = 0;      // acquisition line
  int depth = 0;     // brace depth at declaration
  bool active = true;
};

// Normalize a mutex argument expression to a stable node name:
// "this->" prefix dropped, [...] and (...) elided, tokens joined
// compactly (e.g. `executors_[i]->mutex` -> `executors_[]->mutex`).
std::string normalize_mutex(const LexedFile& f, std::size_t b, std::size_t e) {
  std::string out;
  std::size_t j = b;
  if (f.tok_is(j, "this") && f.tok_is(j + 1, "->")) j += 2;
  while (j < e && j < f.tokens.size()) {
    if (f.tok_is(j, "[")) {
      j = match_close(f, j, "[", "]");
      out += "[]";
      continue;
    }
    if (f.tok_is(j, "(")) {
      j = match_close(f, j, "(", ")");
      out += "()";
      continue;
    }
    const std::string t = f.tok(f.tokens[j]);
    if (!out.empty() && !t.empty() &&
        (isalnum(static_cast<unsigned char>(out.back())) || out.back() == '_') &&
        (isalnum(static_cast<unsigned char>(t.front())) || t.front() == '_'))
      out += ' ';
    out += t;
    ++j;
  }
  return out;
}

// Split the token range of an argument list on depth-0 commas.
std::vector<std::pair<std::size_t, std::size_t>> split_arg_ranges(const LexedFile& f,
                                                                  std::size_t b,
                                                                  std::size_t e) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  int depth = 0;
  std::size_t start = b;
  for (std::size_t j = b; j < e; ++j) {
    if (f.tok_is(j, "(") || f.tok_is(j, "[") || f.tok_is(j, "{")) ++depth;
    if (f.tok_is(j, ")") || f.tok_is(j, "]") || f.tok_is(j, "}")) --depth;
    if (depth == 0 && f.tok_is(j, ",")) {
      out.emplace_back(start, j);
      start = j + 1;
    }
  }
  if (start < e) out.emplace_back(start, e);
  return out;
}

bool range_mentions(const LexedFile& f, std::size_t b, std::size_t e, const char* w) {
  for (std::size_t j = b; j < e; ++j)
    if (f.tok_is(j, Tok::Ident, w)) return true;
  return false;
}

std::string held_summary(const std::vector<ActiveLock>& locks) {
  std::string out;
  for (const ActiveLock& l : locks) {
    if (!l.active) continue;
    if (!out.empty()) out += ", ";
    out += "`" + l.node + "` (line " + std::to_string(l.line) + ")";
  }
  return out;
}

bool any_active(const std::vector<ActiveLock>& locks) {
  for (const ActiveLock& l : locks)
    if (l.active) return true;
  return false;
}

}  // namespace

std::vector<LockEdge> run_lock_rules(const LexedFile& f,
                                     const std::vector<std::string>& rules,
                                     std::vector<Finding>& findings) {
  std::vector<LockEdge> edges;
  const bool want_cycle = rule_wanted(rules, "lock-order-cycle");
  const bool want_blocking = rule_wanted(rules, "blocking-while-locked");
  if (!want_cycle && !want_blocking) return edges;

  std::vector<ActiveLock> locks;
  int depth = 0;
  for (std::size_t i = 0; i < f.tokens.size(); ++i) {
    if (f.tok_is(i, "{")) {
      ++depth;
      continue;
    }
    if (f.tok_is(i, "}")) {
      --depth;
      for (std::size_t k = locks.size(); k-- > 0;)
        if (locks[k].depth > depth) locks.erase(locks.begin() + static_cast<long>(k));
      continue;
    }
    if (f.tokens[i].kind != Tok::Ident) continue;
    const std::string word = f.tok(f.tokens[i]);

    // ------------------------------------------------- lock acquisition
    if (in_list(word, kGuardTypes.data(), kGuardTypes.size())) {
      std::size_t j = i + 1;
      if (f.tok_is(j, "<")) j = match_template_close(f, j);
      if (j >= f.tokens.size() || f.tokens[j].kind != Tok::Ident) continue;
      const std::string var = f.tok(f.tokens[j]);
      const std::size_t open = j + 1;
      const bool paren = f.tok_is(open, "(");
      const bool brace = f.tok_is(open, "{");
      if (!paren && !brace) continue;  // deferred/default construction
      const std::size_t close =
          paren ? match_close(f, open, "(", ")") : match_close(f, open, "{", "}");
      const auto arg_ranges = split_arg_ranges(f, open + 1, close - 1);
      if (arg_ranges.empty()) continue;
      bool deferred = false;
      for (const auto& r : arg_ranges)
        deferred = deferred || range_mentions(f, r.first, r.second, "defer_lock") ||
                   range_mentions(f, r.first, r.second, "try_to_lock");
      if (deferred) continue;
      std::vector<std::string> mutexes;
      if (word == "scoped_lock") {
        for (const auto& r : arg_ranges) {
          if (range_mentions(f, r.first, r.second, "adopt_lock")) continue;
          mutexes.push_back(normalize_mutex(f, r.first, r.second));
        }
      } else {
        mutexes.push_back(normalize_mutex(f, arg_ranges[0].first, arg_ranges[0].second));
      }
      const int line = f.tokens[i].line;
      // Edges run from locks held BEFORE this statement only: scoped_lock's
      // multi-mutex acquire is atomic (std::lock), so its own arguments
      // impose no order on each other.
      const std::size_t held_before = locks.size();
      for (const std::string& m : mutexes) {
        if (m.empty()) continue;
        for (std::size_t h = 0; h < held_before; ++h)
          if (locks[h].active) edges.push_back({locks[h].node, m, f.path, line});
        locks.push_back({var, m, line, depth, true});
      }
      i = close > 0 ? close - 1 : i;
      continue;
    }

    // ------------------------------------- explicit unlock()/lock() toggles
    if ((word == "unlock" || word == "lock") && i >= 2 && f.tok_is(i - 1, ".") &&
        f.tokens[i - 2].kind == Tok::Ident && f.tok_is(i + 1, "(")) {
      const std::string var = f.tok(f.tokens[i - 2]);
      for (std::size_t k = locks.size(); k-- > 0;) {
        if (locks[k].var == var) {
          locks[k].active = (word == "lock");
          break;
        }
      }
      continue;
    }

    if (!want_blocking || !any_active(locks)) continue;

    // ------------------------------------------ condition_variable waits
    if ((word == "wait" || word == "wait_for" || word == "wait_until") && i >= 1 &&
        (f.tok_is(i - 1, ".") || f.tok_is(i - 1, "->")) && f.tok_is(i + 1, "(")) {
      std::string first_arg;
      if (i + 2 < f.tokens.size() && f.tokens[i + 2].kind == Tok::Ident)
        first_arg = f.tok(f.tokens[i + 2]);
      bool arg_is_held = false;
      int others = 0;
      for (const ActiveLock& l : locks) {
        if (!l.active) continue;
        if (l.var == first_arg)
          arg_is_held = true;
        else
          ++others;
      }
      if (arg_is_held && others > 0) {
        findings.push_back(
            {f.path, f.tokens[i].line, "blocking-while-locked",
             "condition_variable " + word + " parks `" + first_arg +
                 "` while still holding " + held_summary(locks) +
                 "; waiters against the second lock can deadlock"});
      } else if (!arg_is_held) {
        findings.push_back({f.path, f.tokens[i].line, "blocking-while-locked",
                            "condition_variable " + word +
                                " does not release the held lock(s) " +
                                held_summary(locks) + "; it parks a different mutex"});
      }
      continue;
    }

    // ------------------------------------------------ blocking operations
    std::string what;
    if (word == "join" && i >= 1 && (f.tok_is(i - 1, ".") || f.tok_is(i - 1, "->")) &&
        f.tok_is(i + 1, "(")) {
      what = ".join()";
    } else if (word == "parallel_for" && f.tok_is(i + 1, "(")) {
      what = "parallel_for";
    } else if (in_list(word, kFileIo.data(), kFileIo.size()) && f.tok_is(i + 1, "(")) {
      what = word;
    } else if (in_list(word, kStreamCtors.data(), kStreamCtors.size())) {
      what = "std::" + word;
    } else if (in_list(word, kSyscalls.data(), kSyscalls.size()) && i >= 1 &&
               f.tok_is(i - 1, "::") && (i < 2 || f.tokens[i - 2].kind != Tok::Ident) &&
               f.tok_is(i + 1, "(")) {
      what = "::" + word;
    } else if (in_list(word, kTransport.data(), kTransport.size()) &&
               f.tok_is(i + 1, "(")) {
      what = word;
    } else if (in_list(word, kServerEntry.data(), kServerEntry.size()) &&
               f.tok_is(i + 1, "(")) {
      what = "GuardbandServer::" + word;
    }
    if (!what.empty()) {
      findings.push_back({f.path, f.tokens[i].line, "blocking-while-locked",
                          "blocking call `" + what + "` while holding " +
                              held_summary(locks) +
                              "; release the lock before blocking"});
    }
  }
  if (!want_cycle) edges.clear();
  return edges;
}

void report_lock_cycles(const std::vector<LockEdge>& edges,
                        std::vector<Finding>& findings) {
  std::map<std::string, std::set<std::string>> adj;
  for (const LockEdge& e : edges) adj[e.held].insert(e.acquired);
  auto reaches = [&adj](const std::string& from, const std::string& to) {
    if (from == to) return true;
    std::set<std::string> seen;
    std::vector<std::string> stack = {from};
    while (!stack.empty()) {
      const std::string cur = stack.back();
      stack.pop_back();
      if (!seen.insert(cur).second) continue;
      const auto it = adj.find(cur);
      if (it == adj.end()) continue;
      for (const std::string& next : it->second) {
        if (next == to) return true;
        stack.push_back(next);
      }
    }
    return false;
  };
  for (const LockEdge& e : edges) {
    if (e.held == e.acquired) {
      findings.push_back({e.path, e.line, "lock-order-cycle",
                          "lock `" + e.acquired +
                              "` acquired while already held (self-deadlock)"});
    } else if (reaches(e.acquired, e.held)) {
      findings.push_back({e.path, e.line, "lock-order-cycle",
                          "acquiring `" + e.acquired + "` while holding `" + e.held +
                              "` participates in a lock-order cycle (elsewhere `" +
                              e.held + "` is acquired after `" + e.acquired + "`)"});
    }
  }
}

}  // namespace taf::analyze
