#include "route/router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/log.hpp"

namespace taf::route {

double base_cost(const RrNode& n) {
  switch (n.kind) {
    case RrKind::Opin: return 0.6;
    case RrKind::Ipin: return 0.5;
    case RrKind::WireH:
    case RrKind::WireV: return 1.0;
  }
  return 1.0;
}

namespace {

/// Everything one relaxation reads or writes about a node, packed into
/// one 32-byte record so it costs one cache line (DESIGN.md section 16).
/// Indexed by search index, as is every per-node array of the router.
struct alignas(32) SearchNode {
  /// Cost of entering the node with one more net on it:
  /// hist_cost * (1 + pres_fac * max(0, over + 1)), refreshed wherever
  /// occupancy changes and once per iteration.
  double entry_cost = 0.0;
  double best_cost = 0.0;  ///< valid when visit_epoch == the current epoch
  int visit_epoch = -1;
  RrSearchIndex prev = -1;
  std::int16_t x = 0;      ///< anchor tile, for the A* heuristic
  std::int16_t y = 0;
  std::int16_t x2 = 0;     ///< far corner of the node's tiles, for the bound
  std::int16_t y2 = 0;
};
static_assert(sizeof(SearchNode) == 32);

/// The tile fields of a node's search record (the other fields start
/// empty). A pin spans only its anchor tile.
SearchNode search_node(const RrNode& n) {
  SearchNode s;
  s.x = static_cast<std::int16_t>(n.tile.x);
  s.y = static_cast<std::int16_t>(n.tile.y);
  s.x2 = static_cast<std::int16_t>(n.tile.x + (n.kind == RrKind::WireH ? n.span - 1 : 0));
  s.y2 = static_cast<std::int16_t>(n.tile.y + (n.kind == RrKind::WireV ? n.span - 1 : 0));
  return s;
}

/// How the remaining-cost bound treats a node: a wire by the tap phase of
/// its track (0 or 1), a pin by its kind.
constexpr std::uint8_t kOpinBound = 2;
constexpr std::uint8_t kIpinBound = 3;
std::uint8_t bound_class(const RrNode& n) {
  switch (n.kind) {
    case RrKind::Opin: return kOpinBound;
    case RrKind::Ipin: return kIpinBound;
    case RrKind::WireH:
    case RrKind::WireV: break;
  }
  return static_cast<std::uint8_t>(RrGraph::tap_phase(n.track));
}

/// remaining_cost_bound() toward one target IPIN at a time (DESIGN.md
/// section 16). A wire-to-wire hop extends a path's reach by at most L
/// tiles along one axis, so a wire whose tiles lie gx columns and gy rows
/// from the target needs ceil(gx/L) + ceil(gy/L) more wires at >= 1.0
/// each, then the IPIN at 0.5. A wire on the target tile whose tap phase
/// misses the target's needs one more wire. An OPIN needs a wire and the
/// IPIN. Every value is a multiple of 0.5, so sums of bounds are exact.
class RemainingBound {
 public:
  explicit RemainingBound(const RrGraph& rr)
      : seg_(std::max(1, rr.arch().wire_segment_length)),
        span_x_(std::max(1, rr.grid().width()) - 1),
        span_y_(std::max(1, rr.grid().height()) - 1) {
    hops_.resize(static_cast<std::size_t>(std::max(span_x_, span_y_) + 1));
    for (int d = 0; d < static_cast<int>(hops_.size()); ++d) {
      hops_[static_cast<std::size_t>(d)] = static_cast<double>((d + seg_ - 1) / seg_);
    }
    max_finite_ = std::max(1.5, hops(span_x_) + hops(span_y_) + 0.5);
  }

  void aim(RrSearchIndex target, arch::TilePos tile) {
    target_ = target;
    tx_ = tile.x;
    ty_ = tile.y;
    phase_ = RrGraph::tap_phase_at(tile.x, tile.y);
  }

  /// The bound at a wire of tap phase `phase`.
  double wire(const SearchNode& s, int phase) const {
    const int gx = std::max({0, s.x - tx_, tx_ - s.x2});
    const int gy = std::max({0, s.y - ty_, ty_ - s.y2});
    const double miss = (gx | gy) == 0 && phase != phase_ ? 1.0 : 0.0;
    return hops(gx) + hops(gy) + 0.5 + miss;
  }

  double operator()(RrSearchIndex i, const SearchNode& s, std::uint8_t bound_cls) const {
    switch (bound_cls) {
      case kOpinBound: return 1.5;
      case kIpinBound: return i == target_ ? 0.0 : std::numeric_limits<double>::infinity();
      default: return wire(s, bound_cls);
    }
  }

  /// The largest finite value the bound takes on this graph.
  double max_finite() const { return max_finite_; }

  /// An upper bound on dist_cost[anchor distance] minus the bound, over
  /// every wire and target tile (DESIGN.md section 16). A wire of span s
  /// whose tiles lie ga tiles from the target along its axis and gb
  /// across it has its anchor at most ga + s - 1 + gb tiles away, and
  /// ga + s - 1 is at most the grid's extent along the axis. The maximum
  /// runs over all such shapes and drops the tap-phase term, which only
  /// raises the bound.
  double wire_excess(const std::vector<double>& dist_cost) const {
    double excess = -std::numeric_limits<double>::infinity();
    for (const auto& [along, across] :
         {std::pair{span_x_, span_y_}, std::pair{span_y_, span_x_}}) {
      for (int s = 1; s <= std::min(seg_, along + 1); ++s) {
        for (int ga = 0; ga + s - 1 <= along; ++ga) {
          for (int gb = 0; gb <= across; ++gb) {
            const double h = dist_cost[static_cast<std::size_t>(ga + s - 1 + gb)];
            excess = std::max(excess, h - (hops(ga) + hops(gb) + 0.5));
          }
        }
      }
    }
    return excess;
  }

 private:
  double hops(int d) const { return hops_[static_cast<std::size_t>(d)]; }

  int seg_;     ///< L
  int span_x_;  ///< the grid's extent in tiles minus one, per axis
  int span_y_;
  std::vector<double> hops_;  ///< hops_[d] = ceil(d / L)
  double max_finite_ = 0.0;
  RrSearchIndex target_ = -1;
  int tx_ = 0;
  int ty_ = 0;
  int phase_ = 0;
};

/// The A* open set: a binary min-heap over reused arrays, priorities and
/// nodes kept apart so a sift reads only priorities. The sift rules are
/// libstdc++'s std::push_heap/std::pop_heap under std::greater<>, so
/// equal priorities pop in the order they always have (DESIGN.md
/// section 16): push sifts up while the parent is greater; pop moves
/// the hole to the bottom along the smaller child, taking the right
/// child on a tie, then sifts the last entry up from there. Each entry
/// carries a mark for the early exit, stored as the complement of its
/// (non-negative) node, which no sift looks at.
class OpenSet {
 public:
  struct Entry {
    double priority;
    RrSearchIndex node;
    bool marked;
  };

  bool empty() const { return prio_.empty(); }
  void clear() {
    prio_.clear();
    node_.clear();
  }

  void push(double priority, RrSearchIndex node, bool marked = false) {
    prio_.push_back(priority);
    node_.push_back(tag(node, marked));
    sift_up(static_cast<std::ptrdiff_t>(prio_.size()) - 1, priority, node_.back());
  }

  /// Removes the least entry and returns it.
  Entry pop() {
    const RrSearchIndex front = node_.front();
    const Entry top{prio_.front(), untag(front), front < 0};
    const double last_prio = prio_.back();
    const RrSearchIndex last_node = node_.back();
    const auto len = static_cast<std::ptrdiff_t>(prio_.size()) - 1;
    std::ptrdiff_t hole = 0;
    std::ptrdiff_t child = 0;
    while (child < (len - 1) / 2) {
      child = 2 * (child + 1);
      // Branch-free: which child is smaller is a coin flip to the
      // predictor. A tie keeps the right child.
      child -= static_cast<std::ptrdiff_t>(at(prio_, child) > at(prio_, child - 1));
      move_entry(child, hole);
      hole = child;
    }
    if ((len & 1) == 0 && child == (len - 2) / 2) {
      child = 2 * (child + 1);
      move_entry(child - 1, hole);
      hole = child - 1;
    }
    sift_up(hole, last_prio, last_node);
    prio_.pop_back();
    node_.pop_back();
    return top;
  }

  /// Re-marks every entry as marked(priority, node) and returns how many
  /// are marked. The caller guarantees that marked() is false for every
  /// entry whose priority is not below `limit`, so only the others are
  /// asked (DESIGN.md section 16): one branch-free pass clears every mark
  /// and collects the entries below the limit, and a second asks only
  /// those.
  template <typename Pred>
  int remark(double limit, Pred&& marked) {
    if (below_.size() < prio_.size()) below_.resize(prio_.size());
    std::size_t kept = 0;
    for (std::size_t i = 0; i < prio_.size(); ++i) {
      node_[i] = untag(node_[i]);
      below_[kept] = static_cast<std::uint32_t>(i);
      kept += static_cast<std::size_t>(prio_[i] < limit);
    }
    int count = 0;
    for (std::size_t k = 0; k < kept; ++k) {
      const std::size_t i = below_[k];
      const bool m = marked(prio_[i], node_[i]);
      node_[i] = tag(node_[i], m);
      count += static_cast<int>(m);
    }
    assert(count == count_unfiltered(marked));
    return count;
  }

 private:
  static RrSearchIndex tag(RrSearchIndex node, bool marked) {
    return node ^ -static_cast<RrSearchIndex>(marked);
  }
  static RrSearchIndex untag(RrSearchIndex tagged) { return tagged ^ (tagged >> 31); }

  /// How many entries marked() holds for, asking every one: the check
  /// that remark()'s filter drops no mark.
  template <typename Pred>
  int count_unfiltered(Pred& marked) const {
    int count = 0;
    for (std::size_t i = 0; i < prio_.size(); ++i)
      count += static_cast<int>(marked(prio_[i], untag(node_[i])));
    return count;
  }

  template <typename T>
  static T& at(std::vector<T>& v, std::ptrdiff_t i) {
    return v[static_cast<std::size_t>(i)];
  }
  void move_entry(std::ptrdiff_t from, std::ptrdiff_t to) {
    at(prio_, to) = at(prio_, from);
    at(node_, to) = at(node_, from);
  }
  void sift_up(std::ptrdiff_t hole, double priority, RrSearchIndex node) {
    std::ptrdiff_t parent = (hole - 1) / 2;
    while (hole > 0 && at(prio_, parent) > priority) {
      move_entry(parent, hole);
      hole = parent;
      parent = (hole - 1) / 2;
    }
    at(prio_, hole) = priority;
    at(node_, hole) = node;
  }

  std::vector<double> prio_;
  std::vector<RrSearchIndex> node_;
  std::vector<std::uint32_t> below_;  ///< remark()'s entries below its limit
};

void check_options(const RouteOptions& opt) {
  if (opt.max_iterations < 1)
    throw std::invalid_argument("route: max_iterations must be at least 1");
  for (const double f :
       {opt.first_iter_pres_fac, opt.pres_fac_mult, opt.hist_fac, opt.astar_fac}) {
    if (!std::isfinite(f) || f <= 0.0)
      throw std::invalid_argument("route: cost factors must be finite and positive");
  }
}

/// The A* heuristic, tabulated by anchor-tile Manhattan distance.
std::vector<double> heuristic_table(const RrGraph& rr, const RouteOptions& opt) {
  const int seg = std::max(1, rr.arch().wire_segment_length);
  std::vector<double> dist_cost(
      static_cast<std::size_t>(rr.grid().width() + rr.grid().height()));
  for (std::size_t d = 0; d < dist_cost.size(); ++d)
    dist_cost[d] = opt.astar_fac * static_cast<double>(d) / seg;
  return dist_cost;
}

/// The present factor of the iteration after one priced at `pres_fac`.
double next_pres_fac(double pres_fac, const RouteOptions& opt) {
  return std::min(pres_fac * opt.pres_fac_mult, 1e6);
}

/// The one PathFinder loop behind route() and reroute(). `result.routes`
/// holds the kept tree of every clean net and an empty route for every
/// net flagged in `dirty`. Kept trees are charged to occupancy up front;
/// iteration 1 routes only the dirty nets, and later iterations rip up
/// every congested net, kept or not. History always starts at zero.
/// The search runs on search indices; routes hold public ids.
RouteResult negotiate(const RrGraph& rr, const pack::PackedNetlist& packed,
                      const place::Placement& pl, RouteResult result,
                      std::vector<char> dirty, const RouteOptions& opt) {
  check_options(opt);
  const int n_nodes = rr.num_nodes();
  const auto n_nets = static_cast<int>(packed.block_nets.size());
  const RrSearchIndex first_wire = rr.first_wire();
  if (rr.grid().width() > INT16_MAX || rr.grid().height() > INT16_MAX)
    throw std::length_error("route: grid dimensions exceed the int16 tile coordinates");

  // Search state, packed per node; occupancy, history, the bound classes
  // and in_tree are off the relaxation's hot path.
  std::vector<SearchNode> state(static_cast<std::size_t>(n_nodes));
  std::vector<int> over(static_cast<std::size_t>(n_nodes));  // occupancy - capacity
  std::vector<double> hist(static_cast<std::size_t>(n_nodes), 0.0);
  std::vector<double> hist_cost(static_cast<std::size_t>(n_nodes));
  std::vector<std::uint8_t> bound_cls(static_cast<std::size_t>(n_nodes));
  std::vector<char> in_tree(static_cast<std::size_t>(n_nodes), 0);
  for (RrSearchIndex i = 0; i < n_nodes; ++i) {
    const RrNode& node = rr.node(rr.node_id(i));
    const auto k = static_cast<std::size_t>(i);
    state[k] = search_node(node);
    over[k] = -node.capacity;
    hist_cost[k] = base_cost(node);  // hist starts at 0
    bound_cls[k] = bound_class(node);
  }
  auto at = [&](RrSearchIndex i) -> SearchNode& { return state[static_cast<std::size_t>(i)]; };
  auto over_at = [&](RrSearchIndex i) -> int& { return over[static_cast<std::size_t>(i)]; };
  auto over_of = [&](RrNodeId id) -> int& { return over_at(rr.search_index(id)); };
  for (const NetRoute& nr : result.routes) {
    for (RrNodeId n : nr.nodes) ++over_of(n);
  }

  double pres_fac = opt.first_iter_pres_fac;
  auto refresh = [&](RrSearchIndex i) {
    const double congestion = pres_fac * std::max(0, over_at(i) + 1);
    at(i).entry_cost = hist_cost[static_cast<std::size_t>(i)] * (1.0 + congestion);
  };
  auto refresh_all = [&] {
    for (RrSearchIndex i = 0; i < n_nodes; ++i) refresh(i);
  };
  refresh_all();

  // A* heuristic, read from its table.
  const std::vector<double> dist_cost = heuristic_table(rr, opt);
  auto heuristic = [&](const SearchNode& s, arch::TilePos target) {
    return dist_cost[static_cast<std::size_t>(std::abs(s.x - target.x) + std::abs(s.y - target.y))];
  };
  RemainingBound bound(rr);
  // Relative slack of the early exit for rounding in the cost sums, and
  // the most a wire's heuristic exceeds its bound (DESIGN.md section 16).
  constexpr double eps = std::numeric_limits<double>::epsilon();
  const double round_slack = (2.0 * bound.max_finite() + 8.0) * eps;
  const double wire_excess = bound.wire_excess(dist_cost);

  // A* bookkeeping with epoch-tagged visitation to avoid clearing. The
  // open set, sink order, tree and path buffers are reused.
  int epoch = 0;
  OpenSet heap;
  std::vector<int> order;
  std::vector<RrSearchIndex> tree;
  std::vector<RrSearchIndex> path;
  // One expanded row's accepted relaxations, in row order.
  struct Relaxation {
    double cost;
    RrSearchIndex to;
  };
  std::vector<Relaxation> accepted(rr.max_fanout());

  // Route one net; returns false if any sink is unreachable.
  auto route_net = [&](int net_idx) -> bool {
    const auto& bn = packed.block_nets[static_cast<std::size_t>(net_idx)];
    NetRoute& nr = result.routes[static_cast<std::size_t>(net_idx)];

    // Rip up previous occupancy.
    for (RrNodeId n : nr.nodes) {
      const RrSearchIndex i = rr.search_index(n);
      --over_at(i);
      refresh(i);
    }
    nr.paths.resize(bn.sink_blocks.size());
    for (auto& p : nr.paths) p.clear();
    nr.nodes.clear();
    nr.parents.clear();

    const arch::TilePos src_pos = pl.pos[static_cast<std::size_t>(bn.driver_block)];
    const RrSearchIndex source = rr.search_index(rr.opin_at(src_pos.x, src_pos.y));

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
      const RrSearchIndex target = rr.search_index(rr.ipin_at(dst.x, dst.y));

      ++epoch;
      heap.clear();
      bound.aim(target, dst);
      for (RrSearchIndex n : tree) {
        // Tree nodes re-usable at zero cost.
        SearchNode& s = at(n);
        s.best_cost = 0.0;
        s.prev = -1;
        s.visit_epoch = epoch;
        heap.push(heuristic(s, dst), n);
      }

      // The early exit (DESIGN.md section 16). Once the target is reached
      // at cost C, an open entry is marked while it may still improve the
      // target or a node on its prev chain: it is current and its cost
      // plus the remaining-cost bound lies below settle_below, just under
      // C. The search ends when no marked entry is left; popping on would
      // leave the path as it is. A marked entry's priority lies below
      // settle_below plus the largest heuristic minus bound of an open
      // entry: wire_excess, or the source OPIN's while it is open.
      bool reached = false;
      int marked = 0;
      double settle_below = 0.0;
      double excess = std::max(wire_excess, heuristic(at(source), dst) - 1.5);
      auto reach = [&] {
        reached = true;
        settle_below = at(target).best_cost * (1.0 + round_slack) - 1e-12;
        const double limit =
            settle_below + excess + 4.0 * eps * (std::abs(settle_below) + std::abs(excess));
        marked = heap.remark(limit, [&](double priority, RrSearchIndex n) {
          const SearchNode& s = at(n);
          return n != target && s.best_cost + heuristic(s, dst) == priority &&
                 s.best_cost + bound(n, s, bound_cls[static_cast<std::size_t>(n)]) <
                     settle_below;
        });
      };
      if (at(target).visit_epoch == epoch) reach();  // the target is on the tree

      // Relaxes the target from `from`; true if that improved it.
      auto relax_target = [&](RrSearchIndex from, double cost) {
        SearchNode& s = at(target);
        const double c = cost + s.entry_cost;
        if (s.visit_epoch == epoch && c >= s.best_cost - 1e-12) return false;
        s.visit_epoch = epoch;
        s.best_cost = c;
        s.prev = from;
        heap.push(c + heuristic(s, dst), target);
        return true;
      };

      while (!(reached && marked == 0) && !heap.empty()) {
        const OpenSet::Entry top = heap.pop();
        marked -= static_cast<int>(top.marked);
        const RrSearchIndex node = top.node;
        if (node == source) excess = wire_excess;
        // An entry is current only while its node's best cost still
        // yields its priority; an improved node left it behind.
        const SearchNode& s = at(node);
        if (s.best_cost + heuristic(s, dst) != top.priority) continue;
        if (node == target) break;
        // Rows are in ascending id order and pins keep their ids, so pins
        // precede wires. No edge enters an OPIN, and IPINs other than the
        // target are dead ends, so the pin prefix only matters if it
        // holds the target.
        const double cost = s.best_cost;
        const std::span<const RrSearchIndex> fan = rr.fanout(node);
        auto it = fan.begin();
        for (; it != fan.end() && *it < first_wire; ++it) {
          if (*it == target && relax_target(node, cost)) reach();
        }
        // The wires in two passes, the same relaxations as relax_target()
        // in the same order (DESIGN.md section 16). Rows hold no duplicate
        // and no self-loop, so no relaxation in a row changes another
        // target's test: pass 1 tests every target without branching,
        // and pass 2 commits and pushes the survivors in row order.
        std::size_t kept = 0;
        for (; it != fan.end(); ++it) {
          const SearchNode& t = at(*it);
          const double c = cost + t.entry_cost;
          accepted[kept] = {c, *it};
          kept += static_cast<std::size_t>(!((t.visit_epoch == epoch) &
                                             (c >= t.best_cost - 1e-12)));
        }
        for (std::size_t k = 0; k < kept; ++k) {
          const auto [c, to] = accepted[k];
          SearchNode& t = at(to);
          t.visit_epoch = epoch;
          t.best_cost = c;
          t.prev = node;
          const bool mark =
              reached &&
              c + bound.wire(t, bound_cls[static_cast<std::size_t>(to)]) < settle_below;
          heap.push(c + heuristic(t, dst), to, mark);
          marked += static_cast<int>(mark);
        }
      }
      if (!reached) {
        ok = false;
        break;
      }
      // Trace back to the tree and commit the path.
      path.clear();
      for (RrSearchIndex n = target; n != -1 && !in_tree[static_cast<std::size_t>(n)];
           n = at(n).prev) {
        path.push_back(n);
      }
      std::reverse(path.begin(), path.end());
      std::vector<RrNodeId>& sink_path = nr.paths[static_cast<std::size_t>(sink_i)];
      for (RrSearchIndex n : path) {
        tree.push_back(n);
        in_tree[static_cast<std::size_t>(n)] = 1;
        nr.parents.emplace_back(rr.node_id(n), rr.node_id(at(n).prev));
        sink_path.push_back(rr.node_id(n));
      }
    }

    for (RrSearchIndex n : tree) in_tree[static_cast<std::size_t>(n)] = 0;
    if (!ok) {
      // An unrouted net holds no occupancy and keeps no partial tree.
      nr.paths.clear();
      nr.parents.clear();
      return false;
    }
    // The tree holds each node once.
    for (RrSearchIndex n : tree) {
      nr.nodes.push_back(rr.node_id(n));
      ++over_at(n);
      refresh(n);
    }
    std::sort(nr.nodes.begin(), nr.nodes.end());
    return true;
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
    for (RrSearchIndex i = 0; i < n_nodes; ++i) {
      const int o = over_at(i);
      if (o > 0) {
        ++overused;
        double& h = hist[static_cast<std::size_t>(i)];
        h += opt.hist_fac * o;
        hist_cost[static_cast<std::size_t>(i)] = base_cost(rr.node(rr.node_id(i))) * (1.0 + h);
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
        if (over_of(node) > 0) {
          dirty[static_cast<std::size_t>(n)] = 1;
          break;
        }
      }
    }
    pres_fac = next_pres_fac(pres_fac, opt);
    refresh_all();
    util::log_debug("route: iter %d, %d overused nodes", iter, overused);
  }

  int used_wires = 0;
  for (RrNodeId n = first_wire; n < n_nodes; ++n) {
    if (over_of(n) + rr.node(n).capacity > 0) ++used_wires;
  }
  result.wire_utilization =
      rr.num_wires() > 0 ? static_cast<double>(used_wires) / rr.num_wires() : 0.0;
  return result;
}

}  // namespace

double remaining_cost_bound(const RrGraph& rr, RrNodeId node, RrNodeId target) {
  for (const RrNodeId id : {node, target}) {
    if (id < 0 || id >= rr.num_nodes())
      throw std::invalid_argument("remaining_cost_bound: node outside the RR graph");
  }
  const RrNode& t = rr.node(target);
  if (t.kind != RrKind::Ipin)
    throw std::invalid_argument("remaining_cost_bound: the target is not an IPIN");
  RemainingBound bound(rr);
  bound.aim(rr.search_index(target), t.tile);
  const RrNode& n = rr.node(node);
  return bound(rr.search_index(node), search_node(n), bound_class(n));
}

double heuristic_excess(const RrGraph& rr, const RouteOptions& opt) {
  check_options(opt);
  return RemainingBound(rr).wire_excess(heuristic_table(rr, opt));
}

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

RouteOptions resumed_options(const RouteOptions& opt, const RouteResult& seed) {
  RouteOptions resumed = opt;
  for (int iter = 1; iter < seed.iterations; ++iter) {
    resumed.first_iter_pres_fac = next_pres_fac(resumed.first_iter_pres_fac, opt);
  }
  return resumed;
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
