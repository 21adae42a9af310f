// Placement-layer tests for the CostModel refactor (DESIGN.md section
// 15): PlaceOptions/RefineOptions validation regressions, wirelength
// property tests (non-negativity, translation invariance, single-block
// nets), the Placement codec corruption corpus (same style as
// tests/test_artifact_store.cpp), refinement invariants (wirelength
// descent, determinism, legality), and golden placements: FNV-1a digests
// of serialized place() and refine_placement() results on suite designs,
// so any drift in the annealer's cost arithmetic or move sequence fails
// here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/arch_params.hpp"
#include "arch/fpga_grid.hpp"
#include "coffe/device_model.hpp"
#include "core/flow.hpp"
#include "first_candidate.hpp"
#include "netlist/benchmarks.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "util/codec.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace {

using namespace taf;
namespace codec = util::codec;

/// Synthetic all-CLB packed netlist with random nets. place() and the
/// cost model only read blocks[].kind and block_nets, so no source
/// netlist is needed.
pack::PackedNetlist make_packed(int num_blocks, int num_nets, int max_fanout,
                                unsigned seed) {
  pack::PackedNetlist p;
  p.blocks.resize(static_cast<std::size_t>(num_blocks));
  for (auto& b : p.blocks) b.kind = pack::BlockKind::Clb;
  util::Rng rng(seed);
  for (int n = 0; n < num_nets; ++n) {
    pack::BlockNet bn;
    bn.net = n;
    bn.driver_block =
        static_cast<int>(rng.next_below(static_cast<std::uint32_t>(num_blocks)));
    const int fanout =
        1 + static_cast<int>(rng.next_below(static_cast<std::uint32_t>(max_fanout)));
    for (int s = 0; s < fanout; ++s) {
      const int sink =
          static_cast<int>(rng.next_below(static_cast<std::uint32_t>(num_blocks)));
      if (sink != bn.driver_block &&
          std::find(bn.sink_blocks.begin(), bn.sink_blocks.end(), sink) ==
              bn.sink_blocks.end()) {
        bn.sink_blocks.push_back(sink);
      }
    }
    if (!bn.sink_blocks.empty()) p.block_nets.push_back(std::move(bn));
  }
  return p;
}

/// Random per-block dynamic powers [W], one per block of `packed`.
std::vector<double> make_block_power(const pack::PackedNetlist& packed, unsigned seed) {
  util::Rng rng(seed);
  std::vector<double> w(packed.blocks.size());
  for (double& b : w) b = 1e-4 * rng.next_double();
  return w;
}

// ---------- options validation (regression: these used to be silently
// accepted and degenerated the anneal / built empty slot pools) ----------

TEST(Place, RejectsInvalidOptions) {
  const pack::PackedNetlist packed = make_packed(12, 20, 4, 1);
  const arch::FpgaGrid grid = arch::FpgaGrid::fit(12, 0, 0);

  for (double effort : {0.0, -1.0, std::nan(""),
                        std::numeric_limits<double>::infinity()}) {
    place::PlaceOptions opt;
    opt.effort = effort;
    EXPECT_THROW(place::place(packed, grid, opt), std::invalid_argument)
        << "effort = " << effort;
  }
  for (int io_capacity : {0, -3}) {
    place::PlaceOptions opt;
    opt.io_capacity = io_capacity;
    EXPECT_THROW(place::place(packed, grid, opt), std::invalid_argument)
        << "io_capacity = " << io_capacity;
  }

  place::PlaceOptions ok;
  ok.effort = 0.1;
  EXPECT_NO_THROW(place::place(packed, grid, ok));
}

TEST(Refine, RejectsInvalidOptionsAndIllegalStarts) {
  const pack::PackedNetlist packed = make_packed(12, 20, 4, 2);
  const arch::FpgaGrid grid = arch::FpgaGrid::fit(12, 0, 0);
  const place::Placement start = place::place(packed, grid, {});
  const std::vector<double> power = make_block_power(packed, 3);

  {
    place::RefineOptions opt;
    opt.effort = 0.0;
    EXPECT_THROW(place::refine_placement(packed, grid, start, power, opt),
                 std::invalid_argument);
  }
  {
    place::RefineOptions opt;
    opt.max_rounds = -1;
    EXPECT_THROW(place::refine_placement(packed, grid, start, power, opt),
                 std::invalid_argument);
  }
  {
    place::RefineOptions opt;
    opt.start_t_factor = 0.0;
    EXPECT_THROW(place::refine_placement(packed, grid, start, power, opt),
                 std::invalid_argument);
  }
  {
    // Wrong number of start positions.
    place::Placement bad = start;
    bad.pos.pop_back();
    EXPECT_THROW(place::refine_placement(packed, grid, bad, power, {}),
                 std::invalid_argument);
  }
  {
    // Two CLBs stacked on one tile: illegal under capacity 1.
    place::Placement bad = start;
    bad.pos[1] = bad.pos[0];
    EXPECT_THROW(place::refine_placement(packed, grid, bad, power, {}),
                 std::invalid_argument);
  }
  {
    // One block power short.
    std::vector<double> bad = power;
    bad.pop_back();
    EXPECT_THROW(place::refine_placement(packed, grid, start, bad, {}),
                 std::invalid_argument);
  }
}

// ---------- wirelength properties ----------

TEST(Wirelength, NonNegativeOnRandomPlacements) {
  const pack::PackedNetlist packed = make_packed(24, 60, 6, 5);
  util::Rng rng(7);
  for (int trial = 0; trial < 32; ++trial) {
    place::Placement pl;
    pl.pos.resize(packed.blocks.size());
    for (auto& p : pl.pos) {
      p.x = static_cast<int>(rng.next_below(20));
      p.y = static_cast<int>(rng.next_below(20));
    }
    EXPECT_GE(place::wirelength_cost(packed, pl), 0.0) << "trial " << trial;
  }
}

TEST(Wirelength, TranslationInvariant) {
  const pack::PackedNetlist packed = make_packed(24, 60, 6, 11);
  util::Rng rng(13);
  place::Placement pl;
  pl.pos.resize(packed.blocks.size());
  for (auto& p : pl.pos) {
    p.x = static_cast<int>(rng.next_below(20));
    p.y = static_cast<int>(rng.next_below(20));
  }
  const double base = place::wirelength_cost(packed, pl);
  for (const auto& shift : {arch::TilePos{3, 5}, arch::TilePos{17, 0},
                            arch::TilePos{0, 9}}) {
    place::Placement moved = pl;
    for (auto& p : moved.pos) {
      p.x += shift.x;
      p.y += shift.y;
    }
    // Identical summation order over integer box spans: exactly equal.
    EXPECT_EQ(place::wirelength_cost(packed, moved), base)
        << "shift (" << shift.x << "," << shift.y << ")";
  }
}

TEST(Wirelength, SingleBlockNetsCostZero) {
  // Every net's pins live on one block: all bounding boxes are points.
  pack::PackedNetlist packed;
  packed.blocks.resize(4);
  for (auto& b : packed.blocks) b.kind = pack::BlockKind::Clb;
  for (int b = 0; b < 4; ++b) {
    pack::BlockNet bn;
    bn.net = b;
    bn.driver_block = b;
    bn.sink_blocks = {b, b};  // degenerate self-sinks
    packed.block_nets.push_back(std::move(bn));
  }
  place::Placement pl;
  pl.pos = {{2, 3}, {5, 1}, {9, 9}, {0, 7}};
  EXPECT_EQ(place::wirelength_cost(packed, pl), 0.0);
}

// ---------- Placement codec: round trip + corruption corpus ----------

TEST(PlacementCodec, RoundTripIsExact) {
  util::Rng rng(17);
  place::Placement pl;
  for (int i = 0; i < 40; ++i) {
    pl.pos.push_back({static_cast<int>(rng.next_below(100)) - 50,
                      static_cast<int>(rng.next_below(100)) - 50});
  }
  pl.cost = 12345.6789;

  codec::Encoder enc;
  place::serialize(pl, enc);
  const std::string bytes = enc.take();

  codec::Decoder dec(bytes);
  const place::Placement back = place::deserialize(dec);
  dec.expect_done();
  ASSERT_EQ(back.pos.size(), pl.pos.size());
  for (std::size_t i = 0; i < pl.pos.size(); ++i) {
    EXPECT_EQ(back.pos[i], pl.pos[i]) << "block " << i;
  }
  EXPECT_EQ(back.cost, pl.cost);

  // Re-serialization is byte-identical.
  codec::Encoder again;
  place::serialize(back, again);
  EXPECT_EQ(again.take(), bytes);
}

TEST(PlacementCodec, CorruptionCorpusThrows) {
  place::Placement pl;
  pl.pos = {{1, 2}, {3, 4}, {5, 6}};
  pl.cost = 42.0;
  codec::Encoder enc;
  place::serialize(pl, enc);
  const std::string bytes = enc.take();

  auto expect_reject = [](const std::string& payload, const char* what) {
    codec::Decoder dec(payload);
    EXPECT_THROW(
        {
          const place::Placement p = place::deserialize(dec);
          dec.expect_done();
          (void)p;
        },
        codec::Error)
        << what;
  };

  // Truncations at every prefix length short of the full payload.
  for (std::size_t cut : {std::size_t{0}, std::size_t{4}, bytes.size() / 2,
                          bytes.size() - 1}) {
    expect_reject(bytes.substr(0, cut), "truncation");
  }
  // Element count inflated far beyond the remaining input.
  {
    std::string huge = bytes;
    huge[0] = '\xff';
    huge[1] = '\xff';
    expect_reject(huge, "inflated count");
  }
  // Trailing garbage after a well-formed payload.
  expect_reject(bytes + "zz", "trailing bytes");
}

// ---------- refinement invariants ----------

TEST(Refine, NeverRaisesWirelengthDeterministicallyAndStaysLegal) {
  const pack::PackedNetlist packed = make_packed(30, 80, 5, 37);
  const arch::FpgaGrid grid = arch::FpgaGrid::fit(30, 0, 0);
  const place::Placement start = place::place(packed, grid, {});
  const std::vector<double> power = make_block_power(packed, 41);

  place::RefineOptions opt;
  opt.seed = 3;
  place::RefineStats stats;
  const place::Placement refined =
      place::refine_placement(packed, grid, start, power, opt, &stats);

  // Near-greedy descent: the wirelength never goes up, and it went down
  // here (some move was accepted, and plateau moves are rejected).
  EXPECT_GT(stats.accepted, 0);
  EXPECT_LT(place::wirelength_cost(packed, refined), place::wirelength_cost(packed, start));
  EXPECT_EQ(refined.cost, place::wirelength_cost(packed, refined));
  EXPECT_GE(stats.moves, stats.accepted);

  // Determinism: same inputs, same placement, move for move.
  place::RefineStats stats2;
  const place::Placement again =
      place::refine_placement(packed, grid, start, power, opt, &stats2);
  ASSERT_EQ(again.pos.size(), refined.pos.size());
  for (std::size_t i = 0; i < refined.pos.size(); ++i) {
    EXPECT_EQ(again.pos[i], refined.pos[i]) << "block " << i;
  }
  EXPECT_EQ(stats2.moves, stats.moves);
  EXPECT_EQ(stats2.accepted, stats.accepted);

  // Legality: every block on a tile of its kind, one CLB per tile.
  std::map<std::pair<int, int>, int> occupancy;
  for (std::size_t i = 0; i < refined.pos.size(); ++i) {
    const arch::TilePos p = refined.pos[i];
    ASSERT_GE(p.x, 0);
    ASSERT_LT(p.x, grid.width());
    ASSERT_GE(p.y, 0);
    ASSERT_LT(p.y, grid.height());
    EXPECT_EQ(grid.at(p), arch::TileKind::Clb) << "block " << i;
    EXPECT_EQ(++occupancy[std::make_pair(p.x, p.y)], 1)
        << "tile (" << p.x << "," << p.y << ")";
  }
}

TEST(Refine, ZeroRoundsReturnsStartUnchanged) {
  const pack::PackedNetlist packed = make_packed(12, 20, 4, 43);
  const arch::FpgaGrid grid = arch::FpgaGrid::fit(12, 0, 0);
  const place::Placement start = place::place(packed, grid, {});
  place::RefineOptions opt;
  opt.max_rounds = 0;
  place::RefineStats stats;
  const place::Placement out = place::refine_placement(
      packed, grid, start, make_block_power(packed, 47), opt, &stats);
  EXPECT_EQ(stats.moves, 0);
  ASSERT_EQ(out.pos.size(), start.pos.size());
  for (std::size_t i = 0; i < start.pos.size(); ++i) {
    EXPECT_EQ(out.pos[i], start.pos[i]) << "block " << i;
  }
}

// ---------- golden placements ----------

std::uint64_t placement_digest(const place::Placement& pl) {
  codec::Encoder enc;
  place::serialize(pl, enc);
  return util::fnv1a_bytes(enc.buffer().data(), enc.buffer().size());
}

netlist::BenchmarkSpec scaled_spec(const char* name) {
  for (const netlist::BenchmarkSpec& spec : netlist::vtr_suite()) {
    if (spec.name == name) return netlist::scaled(spec, 1.0 / 16);
  }
  ADD_FAILURE() << "no suite design named " << name;
  return {};
}

// gtest prints a parameter's raw bytes into each test's name. The digest
// leads so those bytes start with fixed data, not a load address.
struct PlaceDigest {
  std::uint64_t digest;
  const char* design;
};

class PlaceGoldenSuite : public ::testing::TestWithParam<PlaceDigest> {};

/// place() of a suite design at 1/16 scale, from the netlist, packing and
/// grid the flow builds (same netlist seed), without routing it.
TEST_P(PlaceGoldenSuite, SerializedPlacementMatchesPinnedDigest) {
  const netlist::BenchmarkSpec spec = scaled_spec(GetParam().design);
  const core::ImplementOptions flow;
  util::Rng rng(flow.seed ^ std::hash<std::string>{}(spec.name));
  const netlist::Netlist nl = netlist::generate(spec, rng);
  const pack::PackedNetlist packed = pack::pack(nl, arch::scaled_arch());
  const arch::FpgaGrid grid = arch::FpgaGrid::fit(packed.count(pack::BlockKind::Clb),
                                                  packed.count(pack::BlockKind::Bram),
                                                  packed.count(pack::BlockKind::Dsp));
  place::PlaceOptions popt;
  popt.seed = flow.seed;
  popt.effort = flow.place_effort;
  EXPECT_EQ(placement_digest(place::place(packed, grid, popt)), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, PlaceGoldenSuite,
    ::testing::Values(PlaceDigest{0x187f85e48b8fb195ull, "sha"},
                      PlaceDigest{0xdc2c90432e6c6f11ull, "stereovision0"},
                      PlaceDigest{0x5722f9e10a082651ull, "stereovision2"}),
    [](const ::testing::TestParamInfo<PlaceDigest>& param_info) {
      return std::string(param_info.param.design);
    });

/// refine_placement() of stereovision0's blind placement, moving its
/// above-mean-power blocks: thermal_place's first candidate, the path
/// every feedback-edge pass anneals.
TEST(PlaceGolden, RefinedFirstCandidateMatchesPinnedDigest) {
  const coffe::DeviceModel dev = coffe::Characterizer::paper_table2_reference();
  const auto impl = core::implement(scaled_spec("stereovision0"), arch::scaled_arch());
  core::ThermalPlaceOptions tp;
  tp.device = &dev;
  const place::Placement refined = testutil::first_candidate(*impl, tp);
  EXPECT_FALSE(refined.pos == impl->placement.pos) << "the refinement no longer moves a block";
  EXPECT_EQ(placement_digest(refined), 0x12f8048206b8e2efull);
}

}  // namespace
