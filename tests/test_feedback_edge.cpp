// Tests for the place->thermal feedback edge of the stage graph
// (DESIGN.md section 15) and for the stage loaders' decode-then-commit
// contract: the stage list the edge adds, pinned digests of the artifact
// it installs, the invariant that the routes thermal_place installs are
// a legal incremental reroute of the placement it installs, resumed at
// the blind route's present factor, the legality guard, the device
// precondition, and a rejected stored payload warning once and
// recomputing from the blind build — never from the bytes it rejected.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "activity/activity.hpp"
#include "coffe/device_model.hpp"
#include "core/flow.hpp"
#include "core/stage_graph.hpp"
#include "first_candidate.hpp"
#include "netlist/benchmarks.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "route_checks.hpp"
#include "util/codec.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace {

using namespace taf;
namespace codec = util::codec;
using core::ArtifactKind;

constexpr double kScale = 1.0 / 16;

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

netlist::BenchmarkSpec scaled_spec(const char* name) {
  for (const auto& s : netlist::vtr_suite()) {
    if (s.name == name) return netlist::scaled(s, kScale);
  }
  ADD_FAILURE() << "unknown benchmark " << name;
  return {};
}

/// Table II reference device: prices power without a SPICE run.
const coffe::DeviceModel& device() {
  static const coffe::DeviceModel d = coffe::Characterizer::paper_table2_reference();
  return d;
}

core::ImplementOptions aware_options() {
  core::ImplementOptions opt;
  opt.thermal_place.enabled = true;
  opt.thermal_place.device = &device();
  return opt;
}

std::string route_bytes(const route::RouteResult& routes) {
  codec::Encoder e;
  route::serialize(routes, e);
  return e.take();
}

/// Every stored artifact of an implementation, serialized; the netlist,
/// grid and RR graph are rebuilt deterministically from the spec.
std::vector<std::string> impl_bytes(const core::Implementation& impl) {
  codec::Encoder p, pl, a;
  pack::serialize(impl.packed, p);
  place::serialize(impl.placement, pl);
  activity::serialize(impl.activity, a);
  return {p.take(), pl.take(), route_bytes(impl.routes), a.take()};
}

/// Compares artifact by artifact, without dumping payload bytes on a
/// mismatch.
void expect_same_artifacts(const core::Implementation& impl,
                           const std::vector<std::string>& want) {
  static const char* const kNames[] = {"pack", "placement", "routes", "activity"};
  const std::vector<std::string> got = impl_bytes(impl);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i] == want[i]) << kNames[i] << " differs";
  }
}

int count_of(const std::string& haystack, std::string_view needle) {
  int n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

// ---------- graph shape ----------

TEST(FeedbackEdge, AddsOneThermalPlaceStageBeforeStaBuild) {
  const auto g = core::FlowGraph::standard(scaled_spec("sha"), test_arch(), aware_options());
  std::vector<std::string> names;
  for (const auto& s : g.stages()) names.emplace_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{"pack", "place", "route", "activity",
                                             "thermal_place", "sta_build"}));

  const core::FlowStage& tp = g.stages()[4];
  EXPECT_EQ(tp.output, ArtifactKind::PlacementRefined);
  EXPECT_TRUE(tp.storable);
  EXPECT_TRUE(static_cast<bool>(tp.finalize));  // an illegal final route still warns
  EXPECT_EQ(g.stages()[5].inputs,
            (std::vector<ArtifactKind>{ArtifactKind::Netlist, ArtifactKind::Packed,
                                       ArtifactKind::PlacementRefined}));
}

TEST(FeedbackEdge, NullDeviceThrowsInvalidArgument) {
  core::ImplementOptions opt;
  opt.thermal_place.enabled = true;
  EXPECT_THROW(core::FlowGraph::standard(scaled_spec("sha"), test_arch(), opt),
               std::invalid_argument);
  EXPECT_THROW(core::implement(scaled_spec("sha"), test_arch(), opt), std::invalid_argument);
}

// ---------- pinned artifacts ----------

// gtest prints a parameter's raw bytes into each test's name. The digest
// leads so those bytes start with fixed data, not a load address.
struct EdgeDigest {
  std::uint64_t digest;
  const char* design;
};

class FeedbackEdgeGoldenSuite : public ::testing::TestWithParam<EdgeDigest> {};

/// The thermal_place artifact (final placement, then its routes) of a
/// suite design at 1/16 scale with default options. The digests are
/// those of the earlier adjoint-priced stage run at pricing weight 0; at
/// its production weight diffeq1, or1200 and stereovision2 came out
/// differently, and sha the same.
TEST_P(FeedbackEdgeGoldenSuite, SerializedArtifactMatchesPinnedDigest) {
  const auto impl = core::implement(scaled_spec(GetParam().design), test_arch(),
                                    aware_options());
  codec::Encoder e;
  place::serialize(impl->placement, e);
  route::serialize(impl->routes, e);
  EXPECT_EQ(util::fnv1a_bytes(e.buffer().data(), e.buffer().size()), GetParam().digest);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, FeedbackEdgeGoldenSuite,
    ::testing::Values(EdgeDigest{0xdbbbb90683ca15beull, "diffeq1"},
                      EdgeDigest{0xcba7fa0f790309ebull, "or1200"},
                      EdgeDigest{0xe038638f6171c7f2ull, "stereovision2"},
                      EdgeDigest{0x8d08bec5d1c1f76dull, "sha"}),
    [](const ::testing::TestParamInfo<EdgeDigest>& param_info) {
      return std::string(param_info.param.design);
    });

// ---------- routes invariant ----------

TEST(FeedbackEdge, InstalledRoutesAreLegalAndConnectTheInstalledPlacement) {
  // The edge keeps the routes it computed for the accepted candidate.
  // Those come from an incremental reroute, so they need not equal a
  // fresh route() of the final placement; they must still be a legal
  // tree from every driver's OPIN to each sink at that placement.
  const core::ImplementOptions opt = aware_options();
  int refined = 0;
  for (const char* name :
       {"stereovision3", "diffeq1", "diffeq2", "ch_intrinsics", "stereovision0"}) {
    SCOPED_TRACE(name);
    const auto impl = core::implement(scaled_spec(name), test_arch(), opt);
    EXPECT_TRUE(impl->routes.success);
    EXPECT_EQ(impl->routes.overused_nodes, 0);
    routecheck::expect_connected(impl->rr, impl->packed, impl->placement, impl->routes);
    const auto blind = core::implement(scaled_spec(name), test_arch());
    if (impl->placement.pos != blind->placement.pos) ++refined;
  }
  // At least one design moved, so the checks see a rerouted design and
  // not only the blind one.
  EXPECT_GT(refined, 0);
}

TEST(FeedbackEdge, OneAcceptedPassInstallsTheRerouteOfTheBlindRoutes) {
  // With one pass, a moved placement means exactly one candidate was
  // accepted, and its routes are reroute() seeded from the blind build,
  // resumed at the present factor where the blind route converged.
  core::ImplementOptions opt = aware_options();
  opt.thermal_place.passes = 1;
  // stereovision0's blind route converges in 3 iterations, so its resumed
  // options differ from the defaults, and its one pass is accepted only
  // when the candidate is rerouted at them.
  int refined = 0;
  for (const char* name :
       {"stereovision3", "diffeq1", "diffeq2", "ch_intrinsics", "stereovision0"}) {
    SCOPED_TRACE(name);
    const auto blind = core::implement(scaled_spec(name), test_arch());
    const auto impl = core::implement(scaled_spec(name), test_arch(), opt);
    if (impl->placement.pos == blind->placement.pos) {
      EXPECT_NE(std::string_view(name), "stereovision0") << "its one pass was rejected";
      continue;
    }
    ++refined;
    EXPECT_TRUE(route_bytes(impl->routes) ==
                route_bytes(route::reroute(impl->rr, impl->packed, blind->placement,
                                           impl->placement, blind->routes,
                                           route::resumed_options(opt.route, blind->routes))));
  }
  EXPECT_GT(refined, 0);
}

TEST(FeedbackEdge, ResumedCandidateRerouteTakesFewerIterations) {
  // stereovision0's blind route negotiates over several iterations. Its
  // first candidate's dirty nets, rerouted from the first-iteration
  // present factor, pile onto the kept trees and negotiate again;
  // resumed at the factor where the blind route converged, they route
  // around them at once. Both are legal.
  const auto blind = core::implement(scaled_spec("stereovision0"), test_arch());
  ASSERT_GT(blind->routes.iterations, 1);
  const core::ThermalPlaceOptions tp = aware_options().thermal_place;
  const place::Placement candidate = testutil::first_candidate(*blind, tp);
  ASSERT_FALSE(candidate.pos == blind->placement.pos);

  const route::RouteOptions defaults;
  const route::RouteResult fresh = route::reroute(blind->rr, blind->packed, blind->placement,
                                                  candidate, blind->routes, defaults);
  const route::RouteResult resumed =
      route::reroute(blind->rr, blind->packed, blind->placement, candidate, blind->routes,
                     route::resumed_options(defaults, blind->routes));
  for (const route::RouteResult* r : {&fresh, &resumed}) {
    EXPECT_TRUE(r->success);
    EXPECT_EQ(r->overused_nodes, 0);
    routecheck::expect_connected(blind->rr, blind->packed, candidate, *r);
  }
  EXPECT_EQ(fresh.iterations, 3);
  EXPECT_EQ(resumed.iterations, 1);
}

// ---------- legality guard ----------

TEST(FeedbackEdge, NeverShipsMoreOverusedNodesThanTheBlindRoute) {
  // A forced-low iteration budget stops PathFinder mid-negotiation, so
  // every route carries overuse; a partly routed candidate can then time
  // faster than the blind one and must still be rejected.
  const util::ScopedLogLevel quiet(util::LogLevel::Error);
  core::ImplementOptions blind_opt;
  blind_opt.route.max_iterations = 1;
  core::ImplementOptions opt = aware_options();
  opt.route = blind_opt.route;
  // Without the guard, stereovision0's re-place accepts a faster
  // candidate whose reroute has 66 overused nodes against the blind
  // route's 60.
  int illegal = 0;
  for (const char* name : {"stereovision0", "sha", "mkSMAdapter4B"}) {
    SCOPED_TRACE(name);
    const auto blind = core::implement(scaled_spec(name), test_arch(), blind_opt);
    const auto aware = core::implement(scaled_spec(name), test_arch(), opt);
    if (blind->routes.overused_nodes > 0) ++illegal;
    EXPECT_LE(aware->routes.overused_nodes, blind->routes.overused_nodes);
  }
  EXPECT_GT(illegal, 0);  // the budget really left routes illegal
}

// ---------- loaders: decode, then commit ----------

/// Hooks over an in-memory store: `stored` collects what the flow
/// offers, `inject` overrides what one stage's fetch returns.
struct MemoryHooks {
  std::map<std::string, std::string> stored;
  std::map<std::string, std::string> inject;
  core::StageHooks hooks;

  MemoryHooks() {
    hooks.fetch = [this](const core::FlowStage& s, std::string& payload) {
      const auto it = inject.find(s.name);
      if (it == inject.end()) return false;
      payload = it->second;
      return true;
    };
    hooks.store = [this](const core::FlowStage& s, const std::string& payload) {
      stored[s.name] = payload;
    };
  }
  MemoryHooks(const MemoryHooks&) = delete;  // the hooks capture `this`
  MemoryHooks& operator=(const MemoryHooks&) = delete;
};

TEST(StageLoaders, RejectedPayloadWarnsOnceAndRecomputesTheColdBuild) {
  const netlist::BenchmarkSpec spec = scaled_spec("diffeq1");
  core::ImplementOptions opt = aware_options();

  MemoryHooks cold_hooks;
  opt.stage_hooks = &cold_hooks.hooks;
  const auto cold = core::implement(spec, test_arch(), opt);
  const std::vector<std::string> cold_bytes = impl_bytes(*cold);
  ASSERT_EQ(cold_hooks.stored.size(), 5u);

  // Each storable stage's own payload with a trailing byte, plus the
  // pre-fold thermal_place layout (the refined placement alone).
  std::vector<std::pair<std::string, std::string>> cases;
  for (const auto& [name, payload] : cold_hooks.stored) {
    cases.emplace_back(name, payload + '\0');
  }
  codec::Encoder placement_only;
  place::serialize(cold->placement, placement_only);
  cases.emplace_back("thermal_place", placement_only.take());

  for (const auto& [name, payload] : cases) {
    SCOPED_TRACE(name + " / " + std::to_string(payload.size()) + " bytes");
    MemoryHooks hooks;
    hooks.inject[name] = payload;
    opt.stage_hooks = &hooks.hooks;
    testing::internal::CaptureStderr();
    const auto rebuilt = core::implement(spec, test_arch(), opt);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(count_of(err, "stored artifact rejected"), 1) << err;
    EXPECT_EQ(hooks.stored.count(name), 1u);  // recomputed, offered for storage
    expect_same_artifacts(*rebuilt, cold_bytes);
  }
}

}  // namespace
