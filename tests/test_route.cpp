// Router golden and RR-graph invariant suite.
//
// The golden tests pin an FNV-1a digest of the serialized RouteResult, so
// any drift in PathFinder's cost arithmetic, relaxation order or heap
// tie-breaking fails here, not three stages later in a guardband table.
// The invariant tests pin the RR-graph layout the router's fast path
// relies on (DESIGN.md section 16).

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/arch_params.hpp"
#include "arch/fpga_grid.hpp"
#include "core/flow.hpp"
#include "netlist/benchmarks.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "route/rr_graph.hpp"
#include "util/codec.hpp"
#include "util/hash.hpp"

namespace {

using namespace taf;

std::uint64_t route_digest(const route::RouteResult& r) {
  util::codec::Encoder enc;
  route::serialize(r, enc);
  return util::fnv1a_bytes(enc.buffer().data(), enc.buffer().size());
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

struct SuiteDigest {
  const char* design;
  std::uint64_t digest;
};

class RouteGoldenSuite : public ::testing::TestWithParam<SuiteDigest> {};

/// implement() at scale 1/16 on the routed-experiment arch: the exact
/// routes every bench table and perfbench workload starts from.
TEST_P(RouteGoldenSuite, SerializedRoutesMatchPinnedDigest) {
  const SuiteDigest& p = GetParam();
  for (const netlist::BenchmarkSpec& spec : netlist::vtr_suite()) {
    if (spec.name != p.design) continue;
    const auto impl = core::implement(netlist::scaled(spec, 1.0 / 16), arch::scaled_arch());
    EXPECT_TRUE(impl->routes.success);
    EXPECT_EQ(route_digest(impl->routes), p.digest);
    return;
  }
  FAIL() << "no suite design named " << p.design;
}

INSTANTIATE_TEST_SUITE_P(
    Designs, RouteGoldenSuite,
    ::testing::Values(SuiteDigest{"sha", 0x2cf48442ad03b8abull},
                      SuiteDigest{"or1200", 0x697d19d37be6ffa9ull},
                      SuiteDigest{"mkDelayWorker32B", 0xd0c71d33d901db36ull},
                      SuiteDigest{"stereovision1", 0x0bd44176dcf4e4daull}),
    [](const ::testing::TestParamInfo<SuiteDigest>& param_info) {
      return std::string(param_info.param.design);
    });

/// The packed search record keeps tile coordinates as int16; a wider grid
/// is rejected up front rather than routed with wrapped coordinates.
TEST(RouteLimits, RejectsGridBeyondInt16Coordinates) {
  const arch::FpgaGrid grid(INT16_MAX + 1, 4);
  arch::ArchParams a = arch::scaled_arch();
  a.channel_tracks = 2;
  const route::RrGraph rr(grid, a);
  EXPECT_THROW(route::route(rr, pack::PackedNetlist{}, place::Placement{}), std::length_error);
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

TEST(RrGraphInvariants, FanoutRowsStrictlyAscending) {
  const route::RrGraph& rr = fixed_graph();
  for (route::RrNodeId n = 0; n < rr.num_nodes(); ++n) {
    const auto fan = rr.fanout(n);
    for (std::size_t i = 1; i < fan.size(); ++i) {
      ASSERT_LT(fan[i - 1], fan[i]) << "row of node " << n << " unsorted or duplicated";
    }
  }
}

TEST(RrGraphInvariants, NoEdgeEntersAnOpin) {
  const route::RrGraph& rr = fixed_graph();
  for (route::RrNodeId n = 0; n < rr.num_nodes(); ++n) {
    for (route::RrNodeId to : rr.fanout(n)) {
      ASSERT_NE(rr.node(to).kind, route::RrKind::Opin) << "edge " << n << " -> " << to;
    }
  }
}

TEST(RrGraphInvariants, PinsPrecedeWires) {
  const route::RrGraph& rr = fixed_graph();
  EXPECT_EQ(rr.first_wire(), 2 * 10 * 10);
  EXPECT_EQ(rr.num_nodes() - rr.first_wire(), rr.num_wires());
  for (route::RrNodeId n = 0; n < rr.num_nodes(); ++n) {
    EXPECT_EQ(is_pin(rr.node(n)), n < rr.first_wire()) << "node " << n;
  }
}

TEST(RrGraphInvariants, EdgeCountMatchesPinned) {
  const route::RrGraph& rr = fixed_graph();
  std::size_t edges = 0;
  for (route::RrNodeId n = 0; n < rr.num_nodes(); ++n) edges += rr.fanout(n).size();
  EXPECT_EQ(rr.num_nodes(), 6440);
  EXPECT_EQ(edges, 122816u);
}

}  // namespace
