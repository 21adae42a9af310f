// Integration tests for the CAD substrate: pack, place, route, and the
// temperature-aware STA, on generated benchmarks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "arch/arch_params.hpp"
#include "coffe/device_model.hpp"
#include "core/flow.hpp"
#include "netlist/benchmarks.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "reference_sta.hpp"
#include "route/router.hpp"
#include "route/rr_graph.hpp"
#include "timing/timing.hpp"
#include "util/codec.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace taf;

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

/// A mid-size benchmark shared by the heavier tests.
struct Design {
  netlist::Netlist nl;
  pack::PackedNetlist packed;
  arch::FpgaGrid grid;
  place::Placement pl;
  route::RrGraph rr;
  route::RouteResult routes;

  explicit Design(const char* name, double scale) : nl("tmp"), grid(6, 6), rr(grid, test_arch()) {
    for (const auto& s : netlist::vtr_suite()) {
      if (s.name != name) continue;
      util::Rng rng(11);
      nl = netlist::generate(netlist::scaled(s, scale), rng);
      break;
    }
    packed = pack::pack(nl, test_arch());
    grid = arch::FpgaGrid::fit(packed.count(pack::BlockKind::Clb),
                               packed.count(pack::BlockKind::Bram),
                               packed.count(pack::BlockKind::Dsp));
    place::PlaceOptions popt;
    popt.effort = 0.5;
    pl = place::place(packed, grid, popt);
    rr = route::RrGraph(grid, test_arch());
    routes = route::route(rr, packed, pl);
  }
};

const Design& sha_design() {
  static const Design d("sha", 1.0 / 16);
  return d;
}

// ---------- pack ----------

TEST(Pack, EveryPrimitiveAssigned) {
  const auto& d = sha_design();
  for (netlist::PrimId p = 0; p < static_cast<netlist::PrimId>(d.nl.prims().size()); ++p) {
    EXPECT_GE(d.packed.block_of_prim[static_cast<std::size_t>(p)], 0) << "prim " << p;
  }
}

TEST(Pack, ClusterCapacityRespected) {
  const auto& d = sha_design();
  for (const auto& b : d.packed.blocks) {
    if (b.kind != pack::BlockKind::Clb) continue;
    EXPECT_LE(static_cast<int>(b.bles.size()), test_arch().cluster_n);
  }
}

TEST(Pack, ClusterInputLimitRespected) {
  const auto& d = sha_design();
  for (const auto& b : d.packed.blocks) {
    if (b.kind != pack::BlockKind::Clb) continue;
    std::set<netlist::NetId> outputs, inputs;
    for (netlist::PrimId p : b.prims) {
      if (d.nl.prim(p).output != netlist::kNoNet) outputs.insert(d.nl.prim(p).output);
    }
    for (netlist::PrimId p : b.prims) {
      for (netlist::NetId in : d.nl.prim(p).inputs) {
        if (in != netlist::kNoNet && !outputs.count(in)) inputs.insert(in);
      }
    }
    EXPECT_LE(static_cast<int>(inputs.size()), test_arch().cluster_inputs);
  }
}

TEST(Pack, RegisteredBlePairsFfWithLut) {
  const auto& d = sha_design();
  int paired = 0;
  for (const auto& b : d.packed.blocks) {
    for (const auto& ble : b.bles) {
      if (ble.lut >= 0 && ble.ff >= 0) {
        ++paired;
        // The FF's data input must be the LUT's output net.
        EXPECT_EQ(d.nl.prim(ble.ff).inputs[0], d.nl.prim(ble.lut).output);
      }
    }
  }
  EXPECT_GT(paired, 0);
}

TEST(Pack, BlockNetsExcludeInternalSinks) {
  // The BlockNet contract (pack.hpp) on every suite design at 1/16 scale,
  // from the netlist the flow generates: sinks ascend strictly (so they
  // are unique) and never name the driver's own block.
  const core::ImplementOptions flow;
  std::size_t nets = 0;
  for (const netlist::BenchmarkSpec& s : netlist::vtr_suite()) {
    const netlist::BenchmarkSpec spec = netlist::scaled(s, 1.0 / 16);
    SCOPED_TRACE(spec.name);
    util::Rng rng(flow.seed ^ std::hash<std::string>{}(spec.name));
    const pack::PackedNetlist packed = pack::pack(netlist::generate(spec, rng), test_arch());
    for (const pack::BlockNet& bn : packed.block_nets) {
      ASSERT_FALSE(bn.sink_blocks.empty()) << "net " << bn.net;
      ASSERT_TRUE(std::adjacent_find(bn.sink_blocks.begin(), bn.sink_blocks.end(),
                                     std::greater_equal<int>()) == bn.sink_blocks.end())
          << "net " << bn.net << ": sinks do not ascend strictly";
      EXPECT_FALSE(std::binary_search(bn.sink_blocks.begin(), bn.sink_blocks.end(),
                                      bn.driver_block))
          << "net " << bn.net << ": driver block " << bn.driver_block << " is a sink";
    }
    nets += packed.block_nets.size();
  }
  EXPECT_GT(nets, 0u);
}

TEST(Pack, HardBlocksAreSingletons) {
  const Design d("mkPktMerge", 1.0 / 16);  // BRAM-rich
  int brams = 0;
  for (const auto& b : d.packed.blocks) {
    if (b.kind == pack::BlockKind::Bram) {
      ++brams;
      EXPECT_EQ(b.prims.size(), 1u);
    }
  }
  EXPECT_EQ(brams, d.nl.count(netlist::PrimKind::Bram));
}

TEST(Pack, AffinityTieBreaksByLowestNet) {
  // Seed LUT a reads nets {na, nb}; candidate x shares only na, candidate
  // y shares only nb, so both tie at affinity 1. The candidate scan visits
  // cluster nets in ascending NetId order, so x — reached via na < nb —
  // must be the first BLE merged into a's cluster regardless of
  // unordered_set hash-iteration order.
  netlist::Netlist nl("tie");
  auto in = [&](const char* name) {
    return nl.add_net(nl.add_primitive({netlist::PrimKind::Input, name, {}, netlist::kNoNet, 0}));
  };
  const netlist::NetId na = in("na"), nb = in("nb"), nc = in("nc"), nd = in("nd");
  auto lut2 = [&](const char* name, netlist::NetId p0, netlist::NetId p1) {
    const netlist::PrimId id =
        nl.add_primitive({netlist::PrimKind::Lut, name, {}, netlist::kNoNet, 0x6});
    nl.connect(p0, id, 0);
    nl.connect(p1, id, 1);
    return id;
  };
  const netlist::PrimId a = lut2("a", na, nb);
  const netlist::PrimId x = lut2("x", na, nc);
  const netlist::PrimId y = lut2("y", nb, nd);
  (void)y;
  for (netlist::PrimId lut : {a, x, y}) {
    const netlist::NetId out = nl.add_net(lut);
    const netlist::PrimId po = nl.add_primitive(
        {netlist::PrimKind::Output, "o_" + nl.prim(lut).name, {}, netlist::kNoNet, 0});
    nl.connect(out, po, 0);
  }
  ASSERT_EQ(nl.validate(), "");

  const pack::PackedNetlist packed = pack::pack(nl, test_arch());
  const int blk = packed.block_of_prim[static_cast<std::size_t>(a)];
  ASSERT_GE(blk, 0);
  const pack::Block& cluster = packed.blocks[static_cast<std::size_t>(blk)];
  ASSERT_GE(cluster.bles.size(), 2u);
  EXPECT_EQ(cluster.bles[0].lut, a);
  EXPECT_EQ(cluster.bles[1].lut, x) << "affinity tie must break toward the lower net id";
}

// gtest prints a parameter's raw bytes into each test's name. The digest
// leads so those bytes start with fixed data, not a load address.
struct PackDigest {
  std::uint64_t digest;
  const char* design;
};

class PackGoldenSuite : public ::testing::TestWithParam<PackDigest> {};

/// pack() of a suite design at 1/16 scale, from the netlist the flow
/// generates (same seed): any drift in BLE formation or in the affinity
/// scan's candidate order moves the serialized digest.
TEST_P(PackGoldenSuite, SerializedPackingMatchesPinnedDigest) {
  netlist::BenchmarkSpec spec;
  for (const netlist::BenchmarkSpec& s : netlist::vtr_suite()) {
    if (s.name == GetParam().design) spec = netlist::scaled(s, 1.0 / 16);
  }
  ASSERT_EQ(spec.name, GetParam().design);
  const core::ImplementOptions flow;
  util::Rng rng(flow.seed ^ std::hash<std::string>{}(spec.name));
  const netlist::Netlist nl = netlist::generate(spec, rng);
  util::codec::Encoder enc;
  pack::serialize(pack::pack(nl, test_arch()), enc);
  EXPECT_EQ(util::fnv1a_bytes(enc.buffer().data(), enc.buffer().size()), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, PackGoldenSuite,
    ::testing::Values(PackDigest{0xf090dd48b51f3f16ull, "sha"},
                      PackDigest{0x915cd549a0719ffcull, "stereovision0"},
                      PackDigest{0x9f28202e66502addull, "stereovision2"}),
    [](const ::testing::TestParamInfo<PackDigest>& param_info) {
      return std::string(param_info.param.design);
    });

// ---------- place ----------

TEST(Place, AllBlocksOnLegalTiles) {
  const auto& d = sha_design();
  for (std::size_t b = 0; b < d.packed.blocks.size(); ++b) {
    const arch::TilePos p = d.pl.pos[b];
    const arch::TileKind tk = d.grid.at(p);
    switch (d.packed.blocks[b].kind) {
      case pack::BlockKind::Clb: EXPECT_EQ(tk, arch::TileKind::Clb); break;
      case pack::BlockKind::Bram: EXPECT_EQ(tk, arch::TileKind::Bram); break;
      case pack::BlockKind::Dsp: EXPECT_EQ(tk, arch::TileKind::Dsp); break;
      case pack::BlockKind::Io: EXPECT_EQ(tk, arch::TileKind::Io); break;
    }
  }
}

TEST(Place, NoTileOverCapacity) {
  const auto& d = sha_design();
  std::unordered_map<int, int> count;
  for (std::size_t b = 0; b < d.packed.blocks.size(); ++b) {
    count[d.grid.index_of(d.pl.pos[b])]++;
  }
  for (const auto& [tile, n] : count) {
    const arch::TileKind tk = d.grid.at(d.grid.pos_of(tile));
    EXPECT_LE(n, tk == arch::TileKind::Io ? 8 : 1);
  }
}

TEST(Place, AnnealingImprovesOverRandom) {
  const Design& d = sha_design();
  // A near-minimal anneal must be no better. effort = 0 now throws (see
  // Place.RejectsInvalidOptions); the smallest legal effort still runs
  // the 64-move floor at every temperature, so compare against a 5%
  // margin instead of strict ordering.
  place::PlaceOptions rand_opt;
  rand_opt.seed = 77;
  rand_opt.effort = 1e-6;
  const double annealed = place::wirelength_cost(d.packed, d.pl);
  place::Placement random_pl = place::place(d.packed, d.grid, rand_opt);
  const double quick = place::wirelength_cost(d.packed, random_pl);
  EXPECT_LT(annealed, quick * 1.05);
  EXPECT_GT(annealed, 0.0);
}

TEST(Place, DeterministicForSeed) {
  const auto& d = sha_design();
  place::PlaceOptions o;
  o.seed = 5;
  o.effort = 0.2;
  const auto p1 = place::place(d.packed, d.grid, o);
  const auto p2 = place::place(d.packed, d.grid, o);
  EXPECT_EQ(p1.cost, p2.cost);
  for (std::size_t i = 0; i < p1.pos.size(); ++i) EXPECT_EQ(p1.pos[i], p2.pos[i]);
}

// ---------- rr graph / route ----------

TEST(RrGraph, PinLookupsAreConsistent) {
  const auto& d = sha_design();
  for (int y = 0; y < d.grid.height(); ++y) {
    for (int x = 0; x < d.grid.width(); ++x) {
      const auto op = d.rr.node(d.rr.opin_at(x, y));
      EXPECT_EQ(op.kind, route::RrKind::Opin);
      EXPECT_EQ(op.tile.x, x);
      EXPECT_EQ(op.tile.y, y);
      const auto ip = d.rr.node(d.rr.ipin_at(x, y));
      EXPECT_EQ(ip.kind, route::RrKind::Ipin);
    }
  }
}

TEST(RrGraph, WiresHaveBoundedSpan) {
  const auto& d = sha_design();
  const int seg = test_arch().wire_segment_length;
  int wires = 0;
  for (route::RrNodeId n = 0; n < d.rr.num_nodes(); ++n) {
    const auto& node = d.rr.node(n);
    if (node.kind != route::RrKind::WireH && node.kind != route::RrKind::WireV) continue;
    ++wires;
    EXPECT_GE(node.span, 1);
    EXPECT_LE(node.span, seg);
  }
  EXPECT_EQ(wires, d.rr.num_wires());
}

TEST(RrGraph, OpinsReachWiresAndWiresReachIpins) {
  const auto& d = sha_design();
  // Interior tile: its OPIN must have wire fanout; some wire must feed
  // its IPIN (checked via reverse scan).
  const int x = d.grid.width() / 2, y = d.grid.height() / 2;
  EXPECT_FALSE(d.rr.fanout(d.rr.search_index(d.rr.opin_at(x, y))).empty());
  bool ipin_reachable = false;
  const route::RrSearchIndex ip = d.rr.search_index(d.rr.ipin_at(x, y));
  for (route::RrSearchIndex n = 0; n < d.rr.num_nodes() && !ipin_reachable; ++n) {
    for (route::RrSearchIndex to : d.rr.fanout(n)) {
      if (to == ip) {
        ipin_reachable = true;
        break;
      }
    }
  }
  EXPECT_TRUE(ipin_reachable);
}

TEST(Route, ConvergesWithoutOveruse) {
  const auto& d = sha_design();
  EXPECT_TRUE(d.routes.success);
  EXPECT_EQ(d.routes.overused_nodes, 0);
  EXPECT_GT(d.routes.wire_utilization, 0.0);
}

TEST(Route, OccupancyWithinCapacity) {
  const auto& d = sha_design();
  std::vector<int> occ(static_cast<std::size_t>(d.rr.num_nodes()), 0);
  for (const auto& r : d.routes.routes) {
    for (route::RrNodeId n : r.nodes) occ[static_cast<std::size_t>(n)]++;
  }
  for (route::RrNodeId n = 0; n < d.rr.num_nodes(); ++n) {
    EXPECT_LE(occ[static_cast<std::size_t>(n)], d.rr.node(n).capacity) << "node " << n;
  }
}

TEST(Route, EveryNetFullyRouted) {
  const auto& d = sha_design();
  ASSERT_EQ(d.routes.routes.size(), d.packed.block_nets.size());
  for (std::size_t i = 0; i < d.routes.routes.size(); ++i) {
    const auto& nr = d.routes.routes[i];
    EXPECT_FALSE(nr.nodes.empty()) << "net " << i;
    ASSERT_EQ(nr.paths.size(), d.packed.block_nets[i].sink_blocks.size());
    for (std::size_t s = 0; s < nr.paths.size(); ++s) {
      ASSERT_FALSE(nr.paths[s].empty());
      // The path must end at the sink block's IPIN.
      const int sink = d.packed.block_nets[i].sink_blocks[s];
      const arch::TilePos p = d.pl.pos[static_cast<std::size_t>(sink)];
      EXPECT_EQ(nr.paths[s].back(), d.rr.ipin_at(p.x, p.y));
    }
  }
}

TEST(Route, ParentChainsReachTheSource) {
  const auto& d = sha_design();
  for (std::size_t i = 0; i < d.routes.routes.size(); ++i) {
    const auto& nr = d.routes.routes[i];
    std::unordered_map<route::RrNodeId, route::RrNodeId> parent;
    for (const auto& [n, p] : nr.parents) parent[n] = p;
    const auto& bn = d.packed.block_nets[i];
    const arch::TilePos sp = d.pl.pos[static_cast<std::size_t>(bn.driver_block)];
    const route::RrNodeId source = d.rr.opin_at(sp.x, sp.y);
    for (std::size_t s = 0; s < nr.paths.size(); ++s) {
      route::RrNodeId cur = nr.paths[s].back();
      int guard = 0;
      while (cur != source && guard++ < d.rr.num_nodes()) {
        auto it = parent.find(cur);
        ASSERT_NE(it, parent.end()) << "broken parent chain on net " << i;
        cur = it->second;
      }
      EXPECT_EQ(cur, source);
    }
  }
}

// ---------- timing ----------

const coffe::DeviceModel& timing_device() {
  static const coffe::DeviceModel dev =
      coffe::Characterizer(tech::ptm22(), test_arch()).characterize(units::Celsius(25.0));
  return dev;
}

reference_sta::Analyzer reference_of(const Design& d, const route::RouteResult& routes) {
  return reference_sta::Analyzer(d.nl, d.packed, d.pl, d.rr, routes, d.grid);
}

/// Production STA result equals the full-recompute reference bit for bit.
void expect_matches_reference(const timing::TimingResult& r, const timing::TimingResult& ref) {
  EXPECT_EQ(r.fmax_mhz.value(), ref.fmax_mhz.value());
  EXPECT_EQ(r.critical_path_ps.value(), ref.critical_path_ps.value());
  EXPECT_EQ(r.cp_prims, ref.cp_prims);
  EXPECT_EQ(r.cp_breakdown, ref.cp_breakdown);
}

TEST(Timing, HotterIsSlower) {
  const auto& d = sha_design();
  const timing::TimingAnalyzer sta(d.nl, d.packed, d.pl, d.rr, d.routes, d.grid);
  const auto& dev = timing_device();
  const auto cold = sta.analyze_uniform(dev, units::Celsius(0.0));
  const auto hot = sta.analyze_uniform(dev, units::Celsius(100.0));
  EXPECT_GT(hot.critical_path_ps.value(), cold.critical_path_ps.value() * 1.2);
  EXPECT_LT(hot.fmax_mhz.value(), cold.fmax_mhz.value());
  const auto ref = reference_of(d, d.routes);
  expect_matches_reference(cold, ref.analyze_uniform(dev, units::Celsius(0.0)));
  expect_matches_reference(hot, ref.analyze_uniform(dev, units::Celsius(100.0)));
}

TEST(Timing, BreakdownSumsToCriticalPath) {
  const auto& d = sha_design();
  const timing::TimingAnalyzer sta(d.nl, d.packed, d.pl, d.rr, d.routes, d.grid);
  const auto& dev = timing_device();
  const auto r = sta.analyze_uniform(dev, units::Celsius(25.0));
  double sum = 0.0;
  for (double v : r.cp_breakdown) sum += v;
  // Breakdown excludes only the constant FF launch/setup terms.
  EXPECT_GT(sum, 0.7 * r.critical_path_ps.value());
  EXPECT_LE(sum, r.critical_path_ps.value() + 1e-6);
  EXPECT_FALSE(r.cp_prims.empty());
  expect_matches_reference(r, reference_of(d, d.routes).analyze_uniform(dev, units::Celsius(25.0)));
}

TEST(Timing, PerTileTemperatureMatters) {
  const auto& d = sha_design();
  const timing::TimingAnalyzer sta(d.nl, d.packed, d.pl, d.rr, d.routes, d.grid);
  const auto& dev = timing_device();
  const auto ref = reference_of(d, d.routes);
  timing::IncrementalSta session(sta, dev);
  // Uniform 25C vs a map that is 25C except one very hot column.
  std::vector<double> temps(static_cast<std::size_t>(d.grid.num_tiles()), 25.0);
  const auto base = session.analyze(temps);
  expect_matches_reference(base, ref.analyze(dev, temps));
  for (int y = 0; y < d.grid.height(); ++y) {
    temps[static_cast<std::size_t>(d.grid.index_of(d.grid.width() / 2, y))] = 100.0;
  }
  const auto hot_col = session.analyze(temps);
  expect_matches_reference(hot_col, ref.analyze(dev, temps));
  EXPECT_GE(hot_col.critical_path_ps.value(), base.critical_path_ps.value());
  EXPECT_LT(hot_col.critical_path_ps.value(),
            sta.analyze_uniform(dev, units::Celsius(100.0)).critical_path_ps.value());
}

TEST(Timing, RoutedTreeOutsideTheGraphThrows) {
  const auto& d = sha_design();
  for (const bool bad_parent : {false, true}) {
    route::RouteResult routes = d.routes;
    auto& nr = *std::find_if(routes.routes.begin(), routes.routes.end(),
                             [](const route::NetRoute& r) { return !r.parents.empty(); });
    (bad_parent ? nr.parents.front().second : nr.parents.front().first) = d.rr.num_nodes();
    EXPECT_THROW(timing::TimingAnalyzer(d.nl, d.packed, d.pl, d.rr, routes, d.grid),
                 std::invalid_argument)
        << (bad_parent ? "parent" : "node") << " outside the graph";
  }
}

TEST(Timing, MissingSinkFallsBackToHopEstimate) {
  // Regression: a sink IPIN absent from its net's routed tree used to get
  // zero wire delay — a silently optimistic critical path. The analyzer
  // now charges the same SB-hop estimate it uses for unrouted nets, so
  // tampered parents and an empty route must time identically (and both
  // strictly slower than zero-wire).
  const auto& d = sha_design();
  const auto& dev = timing_device();

  route::RouteResult no_parents = d.routes;
  for (auto& nr : no_parents.routes) nr.parents.clear();
  route::RouteResult unrouted = d.routes;
  for (auto& nr : unrouted.routes) {
    nr.nodes.clear();
    nr.parents.clear();
    nr.paths.clear();
  }

  const timing::TimingAnalyzer tampered(d.nl, d.packed, d.pl, d.rr, no_parents,
                                        d.grid);
  const timing::TimingAnalyzer estimated(d.nl, d.packed, d.pl, d.rr, unrouted,
                                         d.grid);
  const auto r_tampered = tampered.analyze_uniform(dev, units::Celsius(25.0));
  const auto r_estimated = estimated.analyze_uniform(dev, units::Celsius(25.0));
  const double cp_tampered = r_tampered.critical_path_ps.value();
  const double cp_estimated = r_estimated.critical_path_ps.value();
  EXPECT_DOUBLE_EQ(cp_tampered, cp_estimated);
  expect_matches_reference(r_tampered,
                           reference_of(d, no_parents).analyze_uniform(dev, units::Celsius(25.0)));
  expect_matches_reference(r_estimated,
                           reference_of(d, unrouted).analyze_uniform(dev, units::Celsius(25.0)));

  // The real routed tree gives yet another (valid) answer; the point is
  // the fallback is not free: inter-block wire delay stays accounted for.
  const timing::TimingAnalyzer real(d.nl, d.packed, d.pl, d.rr, d.routes, d.grid);
  EXPECT_GT(cp_tampered, 0.0);
  EXPECT_GT(real.analyze_uniform(dev, units::Celsius(25.0)).critical_path_ps.value(), 0.0);
}

TEST(Timing, DspHeavyDesignHasDspOnCriticalPath) {
  const Design d("stereovision1", 1.0 / 16);  // DSP-heavy (152 full-size)
  const timing::TimingAnalyzer sta(d.nl, d.packed, d.pl, d.rr, d.routes, d.grid);
  const auto& dev = timing_device();
  const auto r = sta.analyze_uniform(dev, units::Celsius(25.0));
  EXPECT_GT(r.cp_share(coffe::ResourceKind::Dsp), 0.02);
  expect_matches_reference(r, reference_of(d, d.routes).analyze_uniform(dev, units::Celsius(25.0)));
}

}  // namespace
