// Tests for the place->thermal feedback edge of the stage graph
// (DESIGN.md section 15) and for the stage loaders' decode-then-commit
// contract: the stage list the edge adds, the invariant that the routes
// thermal_place installs are exactly route::route() of the placement it
// installs, the legality guard, the device precondition, and a rejected
// stored payload warning once and recomputing from the blind build —
// never from the bytes it rejected.

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "activity/activity.hpp"
#include "coffe/device_model.hpp"
#include "core/flow.hpp"
#include "core/stage_graph.hpp"
#include "netlist/benchmarks.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "util/codec.hpp"
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

// ---------- routes invariant ----------

TEST(FeedbackEdge, InstalledRoutesAreTheRouteOfTheInstalledPlacement) {
  // The edge keeps the routes it computed for the accepted candidate
  // instead of routing again; route() is pure, so those must be the very
  // bytes a fresh route of the final placement produces.
  const core::ImplementOptions opt = aware_options();
  int refined = 0;
  for (const char* name : {"stereovision3", "diffeq1", "diffeq2", "ch_intrinsics"}) {
    SCOPED_TRACE(name);
    const auto impl = core::implement(scaled_spec(name), test_arch(), opt);
    EXPECT_TRUE(route_bytes(impl->routes) ==
                route_bytes(route::route(impl->rr, impl->packed, impl->placement, opt.route)));
    const auto blind = core::implement(scaled_spec(name), test_arch());
    if (impl->placement.pos != blind->placement.pos) ++refined;
  }
  // At least one design moved, so the invariant is pinned on a refined
  // placement and not only on the blind one.
  EXPECT_GT(refined, 0);
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
  // Without the guard, or1200's refinement accepts a faster candidate
  // whose reroute has 9 overused nodes against the blind route's 7.
  int illegal = 0;
  for (const char* name : {"or1200", "sha", "mkSMAdapter4B"}) {
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
