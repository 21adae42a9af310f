#include "route/router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace taf::route {

namespace {

struct HeapEntry {
  double priority;  // cost + heuristic
  double cost;      // accumulated path cost
  RrNodeId node;
  bool operator>(const HeapEntry& o) const { return priority > o.priority; }
};

double base_cost(const RrNode& n) {
  switch (n.kind) {
    case RrKind::Opin: return 0.6;
    case RrKind::Ipin: return 0.5;
    case RrKind::WireH:
    case RrKind::WireV: return 1.0;
  }
  return 1.0;
}

/// Everything one relaxation reads or writes about a node, packed into
/// one 32-byte record so it costs one cache line (DESIGN.md section 16).
struct alignas(32) SearchNode {
  double hist_cost = 0.0;  ///< base_cost * (1 + hist), refreshed where hist changes
  double best_cost = 0.0;  ///< valid when visit_epoch == the current epoch
  int visit_epoch = -1;
  RrNodeId prev = -1;
  int over = 0;            ///< occupancy - capacity
  std::int16_t x = 0;      ///< anchor tile, for the A* heuristic
  std::int16_t y = 0;
};
static_assert(sizeof(SearchNode) == 32);

/// The one PathFinder loop behind route() and reroute(). `result.routes`
/// holds the kept tree of every clean net and an empty route for every
/// net flagged in `dirty`. Kept trees are charged to occupancy up front;
/// iteration 1 routes only the dirty nets, and later iterations rip up
/// every congested net, kept or not. History always starts at zero.
RouteResult negotiate(const RrGraph& rr, const pack::PackedNetlist& packed,
                      const place::Placement& pl, RouteResult result,
                      std::vector<char> dirty, const RouteOptions& opt) {
  const int n_nodes = rr.num_nodes();
  const auto n_nets = static_cast<int>(packed.block_nets.size());
  const int seg = std::max(1, rr.arch().wire_segment_length);
  const RrNodeId first_wire = rr.first_wire();
  if (rr.grid().width() > INT16_MAX || rr.grid().height() > INT16_MAX)
    throw std::length_error("route: grid dimensions exceed the int16 tile coordinates");

  // Search state, packed per node; hist and in_tree are off the hot path.
  std::vector<SearchNode> state(static_cast<std::size_t>(n_nodes));
  std::vector<double> hist(static_cast<std::size_t>(n_nodes), 0.0);
  std::vector<char> in_tree(static_cast<std::size_t>(n_nodes), 0);
  for (RrNodeId n = 0; n < n_nodes; ++n) {
    const RrNode& node = rr.node(n);
    SearchNode& s = state[static_cast<std::size_t>(n)];
    s.hist_cost = base_cost(node);  // hist starts at 0
    s.over = -node.capacity;
    s.x = static_cast<std::int16_t>(node.tile.x);
    s.y = static_cast<std::int16_t>(node.tile.y);
  }
  auto at = [&](RrNodeId n) -> SearchNode& { return state[static_cast<std::size_t>(n)]; };
  for (const NetRoute& nr : result.routes) {
    for (RrNodeId n : nr.nodes) ++at(n).over;
  }

  double pres_fac = opt.first_iter_pres_fac;
  // Cost of entering `s` with one more net on it.
  auto node_cost = [&](const SearchNode& s) {
    return s.hist_cost * (1.0 + pres_fac * std::max(0, s.over + 1));
  };

  // A* heuristic, tabulated by Manhattan distance (same expression, so
  // the same doubles).
  std::vector<double> dist_cost(static_cast<std::size_t>(rr.grid().width() + rr.grid().height()));
  for (std::size_t d = 0; d < dist_cost.size(); ++d)
    dist_cost[d] = opt.astar_fac * static_cast<double>(d) / seg;
  auto heuristic = [&](const SearchNode& s, arch::TilePos target) {
    return dist_cost[static_cast<std::size_t>(std::abs(s.x - target.x) + std::abs(s.y - target.y))];
  };

  // A* bookkeeping with epoch-tagged visitation to avoid clearing. The
  // heap is a binary heap over a reused vector: the same push/pop
  // sequence as std::priority_queue, so ties break identically.
  int epoch = 0;
  std::vector<HeapEntry> heap;
  std::vector<int> order;
  std::vector<RrNodeId> tree;
  std::vector<RrNodeId> path;
  auto push = [&](const HeapEntry& e) {
    heap.push_back(e);
    std::push_heap(heap.begin(), heap.end(), std::greater<>{});
  };

  // Route one net; returns false if any sink is unreachable.
  auto route_net = [&](int net_idx) -> bool {
    const auto& bn = packed.block_nets[static_cast<std::size_t>(net_idx)];
    NetRoute& nr = result.routes[static_cast<std::size_t>(net_idx)];

    // Rip up previous occupancy.
    for (RrNodeId n : nr.nodes) --at(n).over;
    nr.paths.resize(bn.sink_blocks.size());
    for (auto& p : nr.paths) p.clear();
    nr.nodes.clear();
    nr.parents.clear();

    const arch::TilePos src_pos = pl.pos[static_cast<std::size_t>(bn.driver_block)];
    const RrNodeId source = rr.opin_at(src_pos.x, src_pos.y);

    // Route sinks nearest-first (cheap heuristic for better trees).
    order.resize(bn.sink_blocks.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      const auto pa = pl.pos[static_cast<std::size_t>(bn.sink_blocks[static_cast<std::size_t>(a)])];
      const auto pb = pl.pos[static_cast<std::size_t>(bn.sink_blocks[static_cast<std::size_t>(b)])];
      const int da = std::abs(pa.x - src_pos.x) + std::abs(pa.y - src_pos.y);
      const int db = std::abs(pb.x - src_pos.x) + std::abs(pb.y - src_pos.y);
      return da < db;
    });

    tree.assign(1, source);
    in_tree[static_cast<std::size_t>(source)] = 1;

    bool ok = true;
    for (int sink_i : order) {
      const int sink_block = bn.sink_blocks[static_cast<std::size_t>(sink_i)];
      const arch::TilePos dst = pl.pos[static_cast<std::size_t>(sink_block)];
      const RrNodeId target = rr.ipin_at(dst.x, dst.y);

      ++epoch;
      heap.clear();
      for (RrNodeId n : tree) {
        // Tree nodes re-usable at zero cost.
        SearchNode& s = at(n);
        s.best_cost = 0.0;
        s.prev = -1;
        s.visit_epoch = epoch;
        push({heuristic(s, dst), 0.0, n});
      }

      auto relax = [&](RrNodeId from, double cost, RrNodeId to) {
        SearchNode& s = at(to);
        const double c = cost + node_cost(s);
        if (s.visit_epoch == epoch && c >= s.best_cost - 1e-12) return;
        s.visit_epoch = epoch;
        s.best_cost = c;
        s.prev = from;
        push({c + heuristic(s, dst), c, to});
      };

      bool found = false;
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
        const HeapEntry e = heap.back();
        heap.pop_back();
        if (e.cost > at(e.node).best_cost + 1e-12) continue;
        if (e.node == target) {
          found = true;
          break;
        }
        // Rows are ascending and pins precede wires. No edge enters an
        // OPIN, and IPINs other than the target are dead ends, so the pin
        // prefix only matters if it holds the target.
        const std::span<const RrNodeId> fan = rr.fanout(e.node);
        auto it = fan.begin();
        for (; it != fan.end() && *it < first_wire; ++it) {
          if (*it == target) relax(e.node, e.cost, target);
        }
        for (; it != fan.end(); ++it) relax(e.node, e.cost, *it);
      }
      if (!found) {
        ok = false;
        break;
      }
      // Trace back to the tree and commit the path.
      path.clear();
      for (RrNodeId n = target; n != -1 && !in_tree[static_cast<std::size_t>(n)]; n = at(n).prev) {
        path.push_back(n);
      }
      std::reverse(path.begin(), path.end());
      for (RrNodeId n : path) {
        tree.push_back(n);
        in_tree[static_cast<std::size_t>(n)] = 1;
        nr.parents.emplace_back(n, at(n).prev);
      }
      nr.paths[static_cast<std::size_t>(sink_i)].assign(path.begin(), path.end());
    }

    for (RrNodeId n : tree) in_tree[static_cast<std::size_t>(n)] = 0;
    if (ok) {
      nr.nodes.assign(tree.begin(), tree.end());
      std::sort(nr.nodes.begin(), nr.nodes.end());
      nr.nodes.erase(std::unique(nr.nodes.begin(), nr.nodes.end()), nr.nodes.end());
      for (RrNodeId n : nr.nodes) ++at(n).over;
    }
    return ok;
  };

  // --- PathFinder iterations. The reroute order rotates every iteration
  // so two nets contending for one node do not ping-pong forever.
  for (int iter = 1; iter <= opt.max_iterations; ++iter) {
    result.iterations = iter;
    bool all_routed = true;
    const int offset = n_nets > 0 ? (iter * 7919) % n_nets : 0;
    for (int i = 0; i < n_nets; ++i) {
      const int n = (i + offset) % n_nets;
      if (!dirty[static_cast<std::size_t>(n)]) continue;
      if (!route_net(n)) all_routed = false;
    }

    // Accumulate history and find congested nets.
    int overused = 0;
    for (RrNodeId n = 0; n < n_nodes; ++n) {
      SearchNode& s = at(n);
      if (s.over > 0) {
        ++overused;
        double& h = hist[static_cast<std::size_t>(n)];
        h += opt.hist_fac * s.over;
        s.hist_cost = base_cost(rr.node(n)) * (1.0 + h);
      }
    }
    result.overused_nodes = overused;

    if (overused == 0 && all_routed) {
      result.success = true;
      break;
    }

    std::fill(dirty.begin(), dirty.end(), 0);
    for (int n = 0; n < n_nets; ++n) {
      const NetRoute& nr = result.routes[static_cast<std::size_t>(n)];
      if (nr.nodes.empty()) {
        dirty[static_cast<std::size_t>(n)] = 1;  // unrouted net
        continue;
      }
      for (RrNodeId node : nr.nodes) {
        if (at(node).over > 0) {
          dirty[static_cast<std::size_t>(n)] = 1;
          break;
        }
      }
    }
    pres_fac = std::min(pres_fac * opt.pres_fac_mult, 1e6);
    util::log_debug("route: iter %d, %d overused nodes", iter, overused);
  }

  int used_wires = 0;
  for (RrNodeId n = first_wire; n < n_nodes; ++n) {
    if (at(n).over + rr.node(n).capacity > 0) ++used_wires;
  }
  result.wire_utilization =
      rr.num_wires() > 0 ? static_cast<double>(used_wires) / rr.num_wires() : 0.0;
  return result;
}

}  // namespace

RouteResult route(const RrGraph& rr, const pack::PackedNetlist& packed,
                  const place::Placement& pl, const RouteOptions& opt) {
  const std::size_t n_nets = packed.block_nets.size();
  RouteResult empty;
  empty.routes.resize(n_nets);
  return negotiate(rr, packed, pl, std::move(empty), std::vector<char>(n_nets, 1), opt);
}

RouteResult reroute(const RrGraph& rr, const pack::PackedNetlist& packed,
                    const place::Placement& from, const place::Placement& to,
                    const RouteResult& seed, const RouteOptions& opt) {
  const std::size_t n_blocks = packed.blocks.size();
  const std::size_t n_nets = packed.block_nets.size();
  if (from.pos.size() != n_blocks || to.pos.size() != n_blocks)
    throw std::invalid_argument("reroute: placement size does not match the packed blocks");
  if (seed.routes.size() != n_nets)
    throw std::invalid_argument("reroute: seed routes do not match the packed nets");

  std::vector<char> moved(n_blocks);
  for (std::size_t b = 0; b < n_blocks; ++b) moved[b] = from.pos[b] == to.pos[b] ? 0 : 1;
  auto block_moved = [&](int b) { return moved[static_cast<std::size_t>(b)] != 0; };
  auto off_graph = [&](RrNodeId n) { return n < 0 || n >= rr.num_nodes(); };

  RouteResult start;
  start.routes.resize(n_nets);
  std::vector<char> dirty(n_nets, 0);
  for (std::size_t n = 0; n < n_nets; ++n) {
    const pack::BlockNet& bn = packed.block_nets[n];
    const NetRoute& kept = seed.routes[n];
    if (kept.nodes.empty() || block_moved(bn.driver_block) ||
        std::any_of(bn.sink_blocks.begin(), bn.sink_blocks.end(), block_moved)) {
      dirty[n] = 1;
    } else if (std::any_of(kept.nodes.begin(), kept.nodes.end(), off_graph)) {
      throw std::invalid_argument("reroute: a seed route names a node outside the RR graph");
    } else {
      start.routes[n] = kept;
    }
  }
  return negotiate(rr, packed, to, std::move(start), std::move(dirty), opt);
}

void serialize(const RouteResult& result, util::codec::Encoder& enc) {
  enc.u8(result.success ? 1 : 0);
  enc.i32(result.iterations);
  enc.i32(result.overused_nodes);
  enc.f64(result.wire_utilization);
  enc.u64(result.routes.size());
  for (const NetRoute& net : result.routes) {
    enc.u64(net.paths.size());
    for (const std::vector<RrNodeId>& path : net.paths) enc.i32_vec(path);
    enc.i32_vec(net.nodes);
    enc.u64(net.parents.size());
    for (const auto& [node, parent] : net.parents) {
      enc.i32(node);
      enc.i32(parent);
    }
  }
}

RouteResult deserialize(util::codec::Decoder& dec) {
  RouteResult result;
  result.success = dec.u8() != 0;
  result.iterations = dec.i32();
  result.overused_nodes = dec.i32();
  result.wire_utilization = dec.f64();
  const std::uint64_t num_nets = dec.u64();
  for (std::uint64_t i = 0; i < num_nets; ++i) {
    NetRoute net;
    const std::uint64_t num_paths = dec.u64();
    for (std::uint64_t p = 0; p < num_paths; ++p) net.paths.push_back(dec.i32_vec());
    net.nodes = dec.i32_vec();
    const std::uint64_t num_parents = dec.u64();
    for (std::uint64_t p = 0; p < num_parents; ++p) {
      const RrNodeId node = dec.i32();
      const RrNodeId parent = dec.i32();
      net.parents.emplace_back(node, parent);
    }
    result.routes.push_back(std::move(net));
  }
  return result;
}

}  // namespace taf::route
