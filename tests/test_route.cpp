// Router golden and RR-graph invariant suite.
//
// The golden tests pin an FNV-1a digest of the serialized RouteResult, so
// any drift in PathFinder's cost arithmetic, relaxation order or heap
// tie-breaking fails here, not three stages later in a guardband table.
// The reroute tests hold the incremental entry point to the same loop:
// nothing kept reproduces route() exactly, nothing moved keeps every
// tree, and a seeded set of swaps pins the kept-tree path with
// negotiation. resumed_options() is pinned to the loop's present-factor
// growth and cap. The invariant tests pin the RR-graph layout the router's
// fast path relies on: the search index and its CSR rows (DESIGN.md
// section 16).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "arch/arch_params.hpp"
#include "arch/fpga_grid.hpp"
#include "core/flow.hpp"
#include "netlist/benchmarks.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "route/rr_graph.hpp"
#include "route_checks.hpp"
#include "util/codec.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace taf;

std::uint64_t route_digest(const route::RouteResult& r) {
  util::codec::Encoder enc;
  route::serialize(r, enc);
  return util::fnv1a_bytes(enc.buffer().data(), enc.buffer().size());
}

std::string net_bytes(const route::NetRoute& nr) {
  route::RouteResult one;
  one.routes.push_back(nr);
  util::codec::Encoder enc;
  route::serialize(one, enc);
  return enc.take();
}

/// `to` with every block shifted off the grid: a `from` placement under
/// which every block of `to` counts as moved.
place::Placement all_moved_from(const place::Placement& to) {
  place::Placement from = to;
  for (arch::TilePos& p : from.pos) p.x += 1 << 20;
  return from;
}

/// implement() at scale 1/16 of one suite design.
std::unique_ptr<core::Implementation> implement_design(
    const char* name, const arch::ArchParams& a = arch::scaled_arch()) {
  for (const netlist::BenchmarkSpec& spec : netlist::vtr_suite()) {
    if (spec.name == name) return core::implement(netlist::scaled(spec, 1.0 / 16), a);
  }
  ADD_FAILURE() << "no suite design named " << name;
  return nullptr;
}

// ---------- golden routes ----------

/// A hand-built 6x6 design on a 4-track, length-2 fabric: every interior
/// block drives two others across the array, so the nets contend for the
/// few tracks and PathFinder must negotiate (history and present-cost
/// terms both matter). Small enough to run in milliseconds under
/// sanitizers.
TEST(RouteGolden, TinyHandBuiltGraph) {
  const arch::FpgaGrid grid(6, 6);
  arch::ArchParams a = arch::scaled_arch();
  a.channel_tracks = 4;
  a.wire_segment_length = 2;
  const route::RrGraph rr(grid, a);

  place::Placement pl;
  for (int y = 1; y <= 4; ++y) {
    for (int x = 1; x <= 4; ++x) pl.pos.push_back({x, y});
  }
  pack::PackedNetlist packed;
  const int blocks = static_cast<int>(pl.pos.size());
  for (int b = 0; b < blocks; ++b) {
    pack::BlockNet bn;
    bn.driver_block = b;
    bn.sink_blocks = {(b * 5 + 3) % blocks, (b * 7 + 10) % blocks};
    packed.block_nets.push_back(bn);
  }

  const route::RouteResult r = route::route(rr, packed, pl);
  EXPECT_TRUE(r.success);
  EXPECT_GT(r.iterations, 1) << "the fixture no longer exercises negotiation";
  EXPECT_EQ(route_digest(r), 0x009b159d7ad4db60ull);
}

/// The kept-tree path every thermal_place candidate reroute takes:
/// stereovision0 with a seeded set of CLB swaps, rerouted from its blind
/// routes. The nets off the swapped blocks keep their trees in iteration
/// 1, and the congestion the swapped nets leave forces negotiation over
/// kept and new trees alike.
TEST(RouteGolden, SeededSwapRerouteKeepsTreesAndNegotiates) {
  const auto impl = implement_design("stereovision0");
  ASSERT_NE(impl, nullptr);
  const pack::PackedNetlist& packed = impl->packed;
  std::vector<int> clbs;
  for (std::size_t b = 0; b < packed.blocks.size(); ++b) {
    if (packed.blocks[b].kind == pack::BlockKind::Clb) clbs.push_back(static_cast<int>(b));
  }
  ASSERT_GE(clbs.size(), 2u);
  util::Rng rng(21);
  place::Placement swapped = impl->placement;
  for (int k = 0; k < 6; ++k) {
    const auto n = static_cast<std::uint32_t>(clbs.size());
    std::swap(swapped.pos[static_cast<std::size_t>(clbs[rng.next_below(n)])],
              swapped.pos[static_cast<std::size_t>(clbs[rng.next_below(n)])]);
  }
  const auto moved = [&](int b) {
    const auto i = static_cast<std::size_t>(b);
    return !(swapped.pos[i] == impl->placement.pos[i]);
  };
  int kept = 0;
  for (const pack::BlockNet& bn : packed.block_nets) {
    const bool touched = moved(bn.driver_block) ||
                         std::any_of(bn.sink_blocks.begin(), bn.sink_blocks.end(), moved);
    if (!touched) ++kept;
  }
  EXPECT_GT(kept, 0);
  EXPECT_LT(kept, static_cast<int>(packed.block_nets.size()));

  const route::RouteResult r =
      route::reroute(impl->rr, packed, impl->placement, swapped, impl->routes);
  EXPECT_TRUE(r.success);
  EXPECT_GT(r.iterations, 1) << "the swaps no longer force negotiation";
  routecheck::expect_connected(impl->rr, packed, swapped, r);
  EXPECT_EQ(route_digest(r), 0xe2a1d5196b362337ull);
}

/// stereovision0 at 192 tracks, the widest channel the width ablation
/// routes: an OPIN's row holds 192 wires there, twice the experiment
/// width, so any per-row buffer sized for the narrower fabric overflows.
TEST(RouteGolden, WidestAblationChannel) {
  arch::ArchParams a = arch::scaled_arch();
  a.channel_tracks = 192;
  const auto impl = implement_design("stereovision0", a);
  ASSERT_NE(impl, nullptr);
  EXPECT_TRUE(impl->routes.success);
  routecheck::expect_connected(impl->rr, impl->packed, impl->placement, impl->routes);
  EXPECT_EQ(route_digest(impl->routes), 0x0e926fdde006ac21ull);
}

/// sha at 40 tracks, the narrowest channel (of 32, 40 and 48) it routes
/// on: PathFinder negotiates for 9 iterations, so the present factor
/// climbs to 204.8 and a contested node costs over 200 to enter. At such
/// costs the early exit's rounding slack is in play (DESIGN.md section 16).
TEST(RouteGolden, NarrowChannelNegotiatesPastPresentFactor100) {
  arch::ArchParams a = arch::scaled_arch();
  a.channel_tracks = 40;
  const auto impl = implement_design("sha", a);
  ASSERT_NE(impl, nullptr);
  EXPECT_TRUE(impl->routes.success);
  EXPECT_GT(route::resumed_options({}, impl->routes).first_iter_pres_fac, 100.0)
      << "the fixture no longer negotiates past a present factor of 100";
  routecheck::expect_connected(impl->rr, impl->packed, impl->placement, impl->routes);
  EXPECT_EQ(route_digest(impl->routes), 0x49a37dd47a23e70aull);
}

/// diffeq1 at 16 tracks cannot route: all 30 iterations run and the
/// present factor reaches its 1e6 cap, so entry costs reach ~1e7, where
/// one ulp is ~2e-9.
TEST(RouteGolden, UnroutableChannelAtPresentFactorCap) {
  arch::ArchParams a = arch::scaled_arch();
  a.channel_tracks = 16;
  const auto impl = implement_design("diffeq1", a);
  ASSERT_NE(impl, nullptr);
  EXPECT_FALSE(impl->routes.success);
  EXPECT_EQ(route::resumed_options({}, impl->routes).first_iter_pres_fac, 1e6);
  EXPECT_EQ(route_digest(impl->routes), 0x8a57bf18beee49bcull);
}

/// stereovision0 with the A* heuristic weighted to 1.3: the heuristic
/// overestimates, so pops leave the order of an admissible search. The
/// early exit must not depend on the pop order.
TEST(RouteGolden, OverweightedHeuristic) {
  const auto impl = implement_design("stereovision0");
  ASSERT_NE(impl, nullptr);
  route::RouteOptions opt;
  opt.astar_fac = 1.3;
  const route::RouteResult r = route::route(impl->rr, impl->packed, impl->placement, opt);
  EXPECT_TRUE(r.success);
  routecheck::expect_connected(impl->rr, impl->packed, impl->placement, r);
  EXPECT_EQ(route_digest(r), 0xdafdc53b49e1f9e4ull);
}

// gtest prints a parameter's raw bytes into each test's name. The digest
// leads so those bytes start with fixed data, not a load address.
struct SuiteDigest {
  std::uint64_t digest;
  const char* design;
};

class RouteGoldenSuite : public ::testing::TestWithParam<SuiteDigest> {};

/// implement() at scale 1/16 on the routed-experiment arch: the exact
/// routes every bench table and perfbench workload starts from.
TEST_P(RouteGoldenSuite, SerializedRoutesMatchPinnedDigest) {
  const auto impl = implement_design(GetParam().design);
  ASSERT_NE(impl, nullptr);
  EXPECT_TRUE(impl->routes.success);
  EXPECT_EQ(route_digest(impl->routes), GetParam().digest);
}

/// Differential oracle: with every block moved nothing is kept, so the
/// seeded loop must reproduce route() byte for byte — the pinned digest.
TEST_P(RouteGoldenSuite, RerouteWithEveryBlockMovedIsRoute) {
  const auto impl = implement_design(GetParam().design);
  ASSERT_NE(impl, nullptr);
  const route::RouteResult r =
      route::reroute(impl->rr, impl->packed, all_moved_from(impl->placement), impl->placement,
                     impl->routes);
  EXPECT_EQ(route_digest(r), GetParam().digest);
}

/// With no block moved every net is clean: the seed comes back unchanged
/// and legal after one iteration that routes nothing.
TEST_P(RouteGoldenSuite, RerouteWithNoBlockMovedKeepsEveryNet) {
  const auto impl = implement_design(GetParam().design);
  ASSERT_NE(impl, nullptr);
  ASSERT_TRUE(impl->routes.success);
  const route::RouteResult r = route::reroute(impl->rr, impl->packed, impl->placement,
                                              impl->placement, impl->routes);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.iterations, 1);
  EXPECT_EQ(r.overused_nodes, 0);
  EXPECT_EQ(r.wire_utilization, impl->routes.wire_utilization);
  ASSERT_EQ(r.routes.size(), impl->routes.routes.size());
  for (std::size_t n = 0; n < r.routes.size(); ++n) {
    ASSERT_TRUE(net_bytes(r.routes[n]) == net_bytes(impl->routes.routes[n])) << "net " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Designs, RouteGoldenSuite,
    ::testing::Values(SuiteDigest{0x2cf48442ad03b8abull, "sha"},
                      SuiteDigest{0xa55a6a4f08bd8716ull, "stereovision0"},
                      SuiteDigest{0x697d19d37be6ffa9ull, "or1200"},
                      SuiteDigest{0xd0c71d33d901db36ull, "mkDelayWorker32B"},
                      SuiteDigest{0x0bd44176dcf4e4daull, "stereovision1"},
                      SuiteDigest{0x07957b7e5999e9abull, "LU8PEEng"},
                      SuiteDigest{0x24800dd5f6501a46ull, "stereovision2"},
                      SuiteDigest{0xf53e7581b88373a6ull, "bgm"}),
    [](const ::testing::TestParamInfo<SuiteDigest>& param_info) {
      return std::string(param_info.param.design);
    });

// ---------- remaining-cost bound ----------

/// The A* search ends once remaining_cost_bound() proves no open entry can
/// improve its path, which is sound only while the bound is admissible and
/// consistent. Base costs are the least any entry costs, so a bound that
/// holds over them holds at every present factor. On each fabric, for
/// every target IPIN, a reverse Dijkstra over base costs gives the
/// cheapest remaining cost of every node.
void expect_bound_sound(const route::RrGraph& rr) {
  const int n = rr.num_nodes();
  std::vector<std::vector<route::RrNodeId>> fanin(static_cast<std::size_t>(n));
  for (route::RrSearchIndex s = 0; s < n; ++s) {
    for (route::RrSearchIndex t : rr.fanout(s)) {
      fanin[static_cast<std::size_t>(rr.node_id(t))].push_back(rr.node_id(s));
    }
  }
  const double inf = std::numeric_limits<double>::infinity();
  int tight = 0;
  for (int y = 0; y < rr.grid().height(); ++y) {
    for (int x = 0; x < rr.grid().width(); ++x) {
      const route::RrNodeId target = rr.ipin_at(x, y);
      SCOPED_TRACE(testing::Message() << "target IPIN at (" << x << ", " << y << ")");
      std::vector<double> dist(static_cast<std::size_t>(n), inf);
      using Item = std::pair<double, route::RrNodeId>;
      std::priority_queue<Item, std::vector<Item>, std::greater<>> open;
      dist[static_cast<std::size_t>(target)] = 0.0;
      open.push({0.0, target});
      while (!open.empty()) {
        const auto [d, v] = open.top();
        open.pop();
        if (d != dist[static_cast<std::size_t>(v)]) continue;
        const double via = d + route::base_cost(rr.node(v));
        for (route::RrNodeId u : fanin[static_cast<std::size_t>(v)]) {
          if (via < dist[static_cast<std::size_t>(u)]) {
            dist[static_cast<std::size_t>(u)] = via;
            open.push({via, u});
          }
        }
      }
      std::vector<double> bound(static_cast<std::size_t>(n));
      for (route::RrNodeId u = 0; u < n; ++u) {
        bound[static_cast<std::size_t>(u)] = route::remaining_cost_bound(rr, u, target);
      }
      ASSERT_EQ(bound[static_cast<std::size_t>(target)], 0.0);
      for (route::RrNodeId u = 0; u < n; ++u) {
        const double h = bound[static_cast<std::size_t>(u)];
        const double d = dist[static_cast<std::size_t>(u)];
        ASSERT_LE(h, d) << "node " << u << " is overestimated";
        if (h == d && d > 0.0) ++tight;
        for (route::RrSearchIndex t : rr.fanout(rr.search_index(u))) {
          const route::RrNodeId v = rr.node_id(t);
          ASSERT_LE(h, route::base_cost(rr.node(v)) + bound[static_cast<std::size_t>(v)])
              << "edge " << u << " -> " << v << " is inconsistent";
        }
      }
    }
  }
  EXPECT_GT(tight, 0) << "the bound is nowhere tight";
}

/// The scaled arch with `tracks` tracks of length-`segment_length` wires
/// (0 keeps the scaled arch's value).
arch::ArchParams fabric_arch(int tracks, int segment_length) {
  arch::ArchParams a = arch::scaled_arch();
  if (tracks > 0) a.channel_tracks = tracks;
  if (segment_length > 0) a.wire_segment_length = segment_length;
  return a;
}

TEST(RemainingCostBound, SoundOnTheHandBuiltFabric) {
  const arch::FpgaGrid grid(6, 6);
  const arch::ArchParams a = fabric_arch(4, 2);
  expect_bound_sound(route::RrGraph(grid, a));
}

/// At one track only odd rows have taps: every wire on an even-row target's
/// tile misses its tap phase, and the target is unreachable.
TEST(RemainingCostBound, SoundOnAOneTrackFabric) {
  const arch::FpgaGrid grid(6, 6);
  const arch::ArchParams a = fabric_arch(1, 0);
  expect_bound_sound(route::RrGraph(grid, a));
}

TEST(RemainingCostBound, SoundOnTheScaledArch) {
  const arch::FpgaGrid grid(6, 6);
  const arch::ArchParams a = fabric_arch(0, 0);
  expect_bound_sound(route::RrGraph(grid, a));
}

/// The early exit asks only heap entries whose priority lies below its
/// threshold plus heuristic_excess(), so the constant must bound the A*
/// heuristic (astar_fac times the anchor tile's Manhattan distance, over
/// L) minus the bound at every wire toward every target IPIN. It must
/// also be tight: a constant 0.125 lower fails on some pair, so a wrong
/// one cannot hide behind slack.
void expect_excess_sound(const route::RrGraph& rr) {
  const int seg = std::max(1, rr.arch().wire_segment_length);
  for (const double astar_fac : {0.85, 1.3}) {
    SCOPED_TRACE(testing::Message() << "astar_fac " << astar_fac);
    route::RouteOptions opt;
    opt.astar_fac = astar_fac;
    const double excess = route::heuristic_excess(rr, opt);
    double worst = -std::numeric_limits<double>::infinity();
    for (int y = 0; y < rr.grid().height(); ++y) {
      for (int x = 0; x < rr.grid().width(); ++x) {
        const route::RrNodeId target = rr.ipin_at(x, y);
        for (route::RrNodeId w = rr.first_wire(); w < rr.num_nodes(); ++w) {
          const arch::TilePos anchor = rr.node(w).tile;
          const int d = std::abs(anchor.x - x) + std::abs(anchor.y - y);
          const double h = opt.astar_fac * static_cast<double>(d) / seg;
          const double gap = h - route::remaining_cost_bound(rr, w, target);
          ASSERT_LE(gap, excess) << "wire " << w << " toward the IPIN at (" << x << ", " << y
                                 << ") exceeds the constant";
          worst = std::max(worst, gap);
        }
      }
    }
    EXPECT_GT(worst, excess - 0.125) << "the constant is looser than it need be";
  }
}

TEST(RemainingCostBound, ExcessBoundsTheHeuristicOnTheHandBuiltFabric) {
  const arch::FpgaGrid grid(6, 6);
  const arch::ArchParams a = fabric_arch(4, 2);
  expect_excess_sound(route::RrGraph(grid, a));
}

TEST(RemainingCostBound, ExcessBoundsTheHeuristicOnAOneTrackFabric) {
  const arch::FpgaGrid grid(6, 6);
  const arch::ArchParams a = fabric_arch(1, 0);
  expect_excess_sound(route::RrGraph(grid, a));
}

TEST(RemainingCostBound, ExcessBoundsTheHeuristicOnTheScaledArch) {
  const arch::FpgaGrid grid(6, 6);
  const arch::ArchParams a = fabric_arch(0, 0);
  const route::RrGraph rr(grid, a);
  expect_excess_sound(rr);
  // L = 4 at the default weight: a span-4 wire ending on the target tile,
  // 0.85 * 3 / 4 - 0.5.
  EXPECT_DOUBLE_EQ(route::heuristic_excess(rr), 0.1375);
}

TEST(RemainingCostBound, RejectsNodesOutsideTheGraph) {
  const arch::FpgaGrid grid(4, 4);
  const arch::ArchParams a = fabric_arch(2, 0);
  const route::RrGraph rr(grid, a);
  const route::RrNodeId ipin = rr.ipin_at(0, 0);
  for (const route::RrNodeId bad : {-1, rr.num_nodes(), std::numeric_limits<int>::max()}) {
    EXPECT_THROW(route::remaining_cost_bound(rr, bad, ipin), std::invalid_argument);
    EXPECT_THROW(route::remaining_cost_bound(rr, ipin, bad), std::invalid_argument);
  }
  route::RouteOptions opt;
  opt.astar_fac = 0.0;
  EXPECT_THROW(route::heuristic_excess(rr, opt), std::invalid_argument);
}

TEST(RemainingCostBound, PinsAndNonIpinTargets) {
  const arch::FpgaGrid grid(4, 4);
  const arch::ArchParams a = fabric_arch(2, 0);
  const route::RrGraph rr(grid, a);
  EXPECT_THROW(route::remaining_cost_bound(rr, rr.ipin_at(0, 0), rr.opin_at(1, 1)),
               std::invalid_argument);
  EXPECT_EQ(route::remaining_cost_bound(rr, rr.opin_at(1, 1), rr.ipin_at(0, 0)), 1.5);
  EXPECT_EQ(route::remaining_cost_bound(rr, rr.ipin_at(1, 1), rr.ipin_at(0, 0)),
            std::numeric_limits<double>::infinity());
}

// ---------- resumed present factor ----------

TEST(RouteResume, ResumedOptionsStartAtTheSeedsConvergedPresentFactor) {
  route::RouteOptions opt;
  opt.max_iterations = 17;
  opt.hist_fac = 0.5;
  opt.astar_fac = 0.9;
  route::RouteResult seed;
  const auto resumed_at = [&](int iterations) {
    seed.iterations = iterations;
    const route::RouteOptions r = route::resumed_options(opt, seed);
    EXPECT_EQ(r.max_iterations, opt.max_iterations);
    EXPECT_EQ(r.pres_fac_mult, opt.pres_fac_mult);
    EXPECT_EQ(r.hist_fac, opt.hist_fac);
    EXPECT_EQ(r.astar_fac, opt.astar_fac);
    return r.first_iter_pres_fac;
  };
  EXPECT_EQ(resumed_at(1), opt.first_iter_pres_fac);
  EXPECT_EQ(resumed_at(3), 0.8 * 2.0 * 2.0);
  EXPECT_EQ(resumed_at(40), 1e6);  // capped as the PathFinder loop caps it
}

// ---------- incremental reroute ----------

/// Swapping two logic blocks dirties only the nets on them. Every swap
/// must yield a legal, connected result; a swap that converges in the
/// first iteration must leave every other net's tree untouched. The
/// channels are twice the experiment width so that some swaps need no
/// negotiation (at the experiment width every swap here takes two).
TEST(Reroute, TwoBlockSwapTouchesOnlyIncidentNets) {
  arch::ArchParams a = arch::scaled_arch();
  a.channel_tracks *= 2;
  const auto impl = implement_design("sha", a);
  ASSERT_NE(impl, nullptr);
  const pack::PackedNetlist& packed = impl->packed;
  std::vector<int> clbs;
  for (std::size_t b = 0; b < packed.blocks.size() && clbs.size() < 10; ++b) {
    if (packed.blocks[b].kind == pack::BlockKind::Clb) clbs.push_back(static_cast<int>(b));
  }

  int one_iteration = 0;
  for (std::size_t i = 0; i < clbs.size(); ++i) {
    for (std::size_t j = i + 1; j < clbs.size(); ++j) {
      SCOPED_TRACE(testing::Message() << "swap " << clbs[i] << " <-> " << clbs[j]);
      place::Placement swapped = impl->placement;
      std::swap(swapped.pos[static_cast<std::size_t>(clbs[i])],
                swapped.pos[static_cast<std::size_t>(clbs[j])]);
      const route::RouteResult r =
          route::reroute(impl->rr, packed, impl->placement, swapped, impl->routes);
      EXPECT_TRUE(r.success);
      EXPECT_EQ(r.overused_nodes, 0);
      routecheck::expect_connected(impl->rr, packed, swapped, r);
      if (r.iterations != 1) continue;

      ++one_iteration;
      const auto on_swap = [&](int b) { return b == clbs[i] || b == clbs[j]; };
      for (std::size_t n = 0; n < r.routes.size(); ++n) {
        const pack::BlockNet& bn = packed.block_nets[n];
        if (on_swap(bn.driver_block) ||
            std::any_of(bn.sink_blocks.begin(), bn.sink_blocks.end(), on_swap)) {
          continue;
        }
        ASSERT_TRUE(net_bytes(r.routes[n]) == net_bytes(impl->routes.routes[n]))
            << "net " << n;
      }
    }
  }
  EXPECT_GT(one_iteration, 0) << "no swap converges in one iteration any more";
}

TEST(Reroute, MismatchedSeedOrPlacementThrows) {
  const auto impl = implement_design("sha");
  ASSERT_NE(impl, nullptr);
  const place::Placement& pl = impl->placement;
  place::Placement short_pl = pl;
  short_pl.pos.pop_back();
  route::RouteResult short_seed = impl->routes;
  short_seed.routes.pop_back();
  EXPECT_THROW(route::reroute(impl->rr, impl->packed, pl, pl, short_seed),
               std::invalid_argument);
  EXPECT_THROW(route::reroute(impl->rr, impl->packed, short_pl, pl, impl->routes),
               std::invalid_argument);
  EXPECT_THROW(route::reroute(impl->rr, impl->packed, pl, short_pl, impl->routes),
               std::invalid_argument);
  // A seed from another RR graph would index occupancy out of range.
  route::RouteResult foreign = impl->routes;
  foreign.routes.front().nodes.push_back(impl->rr.num_nodes());
  EXPECT_THROW(route::reroute(impl->rr, impl->packed, pl, pl, foreign), std::invalid_argument);
}

// ---------- unroutable nets ----------

/// Every net without occupancy carries no partial tree: a net whose later
/// sink is unreachable must not keep the paths its earlier sinks found.
void expect_unrouted_nets_empty(const route::RouteResult& r) {
  for (std::size_t n = 0; n < r.routes.size(); ++n) {
    const route::NetRoute& nr = r.routes[n];
    if (!nr.nodes.empty()) continue;
    EXPECT_TRUE(nr.paths.empty()) << "net " << n;
    EXPECT_TRUE(nr.parents.empty()) << "net " << n;
  }
}

/// At one track, an IPIN taps a wire only on odd rows ((t + 2x + 3y) odd)
/// and an OPIN only where x + y is even. Net 0 drives a reachable sink
/// one tile away and an unreachable one two tiles away; sinks route
/// nearest-first, so the search fails after the first sink's path is
/// committed. Net 1 routes.
TEST(RouteUnroutable, LaterUnreachableSinkLeavesNoPartialTree) {
  const arch::FpgaGrid grid(6, 6);
  arch::ArchParams a = arch::scaled_arch();
  a.channel_tracks = 1;
  const route::RrGraph rr(grid, a);
  place::Placement pl;
  pl.pos = {{1, 1}, {2, 1}, {2, 2}, {1, 3}, {3, 3}};
  pack::PackedNetlist packed;
  packed.block_nets.push_back({0, 0, {1, 2}});
  packed.block_nets.push_back({1, 3, {4}});
  route::RouteOptions opt;
  opt.max_iterations = 2;

  pack::PackedNetlist reachable_only = packed;
  reachable_only.block_nets[0].sink_blocks = {1};
  const route::RouteResult reachable = route::route(rr, reachable_only, pl, opt);
  ASSERT_TRUE(reachable.success) << "the nearer sink is no longer reachable on its own";

  const route::RouteResult r = route::route(rr, packed, pl, opt);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.routes[0].nodes.empty());
  EXPECT_FALSE(r.routes[1].nodes.empty());
  expect_unrouted_nets_empty(r);
}

/// sha's blind placement on a one-track fabric: many nets fail, some
/// after routing their nearer sinks.
TEST(RouteUnroutable, OneTrackFabricLeavesNoPartialTrees) {
  const auto impl = implement_design("sha");
  ASSERT_NE(impl, nullptr);
  arch::ArchParams a = arch::scaled_arch();
  a.channel_tracks = 1;
  const route::RrGraph rr(impl->grid, a);
  route::RouteOptions opt;
  opt.max_iterations = 2;
  const route::RouteResult r = route::route(rr, impl->packed, impl->placement, opt);
  EXPECT_FALSE(r.success);
  const auto unrouted = std::count_if(r.routes.begin(), r.routes.end(),
                                      [](const route::NetRoute& nr) { return nr.nodes.empty(); });
  EXPECT_GT(unrouted, 0);
  expect_unrouted_nets_empty(r);
}

/// The packed search record keeps tile coordinates as int16; a wider grid
/// is rejected up front rather than routed with wrapped coordinates.
TEST(RouteLimits, RejectsGridBeyondInt16Coordinates) {
  const arch::FpgaGrid grid(INT16_MAX + 1, 4);
  arch::ArchParams a = arch::scaled_arch();
  a.channel_tracks = 2;
  const route::RrGraph rr(grid, a);
  EXPECT_THROW(route::route(rr, pack::PackedNetlist{}, place::Placement{}), std::length_error);
}

/// Settings that cannot negotiate are typed errors, not empty routes.
TEST(RouteLimits, RejectsInvalidOptions) {
  const arch::FpgaGrid grid(4, 4);
  arch::ArchParams a = arch::scaled_arch();
  a.channel_tracks = 2;
  const route::RrGraph rr(grid, a);
  const pack::PackedNetlist packed;
  const place::Placement pl;
  const route::RouteResult seed;
  auto expect_rejected = [&](const route::RouteOptions& o) {
    EXPECT_THROW(route::route(rr, packed, pl, o), std::invalid_argument);
    EXPECT_THROW(route::reroute(rr, packed, pl, pl, seed, o), std::invalid_argument);
  };
  EXPECT_NO_THROW(route::route(rr, packed, pl));

  route::RouteOptions no_iterations;
  no_iterations.max_iterations = 0;
  expect_rejected(no_iterations);
  for (double route::RouteOptions::*factor :
       {&route::RouteOptions::first_iter_pres_fac, &route::RouteOptions::pres_fac_mult,
        &route::RouteOptions::hist_fac, &route::RouteOptions::astar_fac}) {
    for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      route::RouteOptions o;
      o.*factor = bad;
      SCOPED_TRACE(testing::Message() << "factor value " << bad);
      expect_rejected(o);
    }
  }
}

// ---------- RR-graph invariants ----------

/// 10x10 grid on the routed-experiment arch (96 tracks, length 4).
const route::RrGraph& fixed_graph() {
  static const arch::FpgaGrid grid(10, 10);
  static const arch::ArchParams a = arch::scaled_arch();
  static const route::RrGraph rr(grid, a);
  return rr;
}

bool is_pin(const route::RrNode& n) {
  return n.kind == route::RrKind::Opin || n.kind == route::RrKind::Ipin;
}

TEST(RrGraphInvariants, SearchMapsAreInversePermutations) {
  const route::RrGraph& rr = fixed_graph();
  for (route::RrNodeId id = 0; id < rr.num_nodes(); ++id) {
    const route::RrSearchIndex s = rr.search_index(id);
    ASSERT_TRUE(s >= 0 && s < rr.num_nodes()) << "node " << id;
    ASSERT_EQ(rr.node_id(s), id) << "node " << id;
  }
  for (route::RrSearchIndex s = 0; s < rr.num_nodes(); ++s) {
    ASSERT_EQ(rr.search_index(rr.node_id(s)), s) << "search index " << s;
  }
}

TEST(RrGraphInvariants, PinsPrecedeWires) {
  const route::RrGraph& rr = fixed_graph();
  EXPECT_EQ(rr.first_wire(), 2 * 10 * 10);
  EXPECT_EQ(rr.num_nodes() - rr.first_wire(), rr.num_wires());
  for (route::RrNodeId n = 0; n < rr.num_nodes(); ++n) {
    EXPECT_EQ(is_pin(rr.node(n)), n < rr.first_wire()) << "node " << n;
    if (n < rr.first_wire()) {
      EXPECT_EQ(rr.search_index(n), n) << "pin " << n;
    }
  }
}

/// Wires sit in contiguous runs per anchor tile, tiles in row-major
/// (y, then x) order, and ids ascend within a run.
TEST(RrGraphInvariants, WiresAreTileMajorAndStableInId) {
  const route::RrGraph& rr = fixed_graph();
  const int width = rr.grid().width();
  auto tile_of = [&](route::RrSearchIndex s) {
    const route::RrNode& n = rr.node(rr.node_id(s));
    return n.tile.y * width + n.tile.x;
  };
  for (route::RrSearchIndex s = rr.first_wire() + 1; s < rr.num_nodes(); ++s) {
    ASSERT_LE(tile_of(s - 1), tile_of(s)) << "search index " << s;
    if (tile_of(s - 1) == tile_of(s)) {
      ASSERT_LT(rr.node_id(s - 1), rr.node_id(s)) << "search index " << s;
    }
  }
}

/// Each row ascends strictly in public id, which puts its pins (search
/// index below first_wire()) before its wires.
TEST(RrGraphInvariants, FanoutRowsStrictlyAscending) {
  const route::RrGraph& rr = fixed_graph();
  for (route::RrSearchIndex s = 0; s < rr.num_nodes(); ++s) {
    const auto fan = rr.fanout(s);
    for (std::size_t i = 1; i < fan.size(); ++i) {
      ASSERT_LT(rr.node_id(fan[i - 1]), rr.node_id(fan[i]))
          << "row of search index " << s << " unsorted or duplicated";
      ASSERT_FALSE(fan[i - 1] >= rr.first_wire() && fan[i] < rr.first_wire())
          << "row of search index " << s << " has a pin after a wire";
    }
  }
}

TEST(RrGraphInvariants, NoEdgeEntersAnOpin) {
  const route::RrGraph& rr = fixed_graph();
  for (route::RrSearchIndex s = 0; s < rr.num_nodes(); ++s) {
    for (route::RrSearchIndex to : rr.fanout(s)) {
      ASSERT_NE(rr.node(rr.node_id(to)).kind, route::RrKind::Opin)
          << "edge " << rr.node_id(s) << " -> " << rr.node_id(to);
    }
  }
}

TEST(RrGraphInvariants, EdgeCountMatchesPinned) {
  const route::RrGraph& rr = fixed_graph();
  std::size_t edges = 0;
  for (route::RrSearchIndex s = 0; s < rr.num_nodes(); ++s) edges += rr.fanout(s).size();
  EXPECT_EQ(rr.num_nodes(), 6440);
  EXPECT_EQ(edges, 122816u);
}

}  // namespace
