// Tests for the stage-graph / artifact-store tentpole: the versioned
// binary codec (byte-exact round trips, envelope validation), the
// on-disk ArtifactStore (save/load, corruption corpus degrading to clean
// misses), the FlowGraph's hash chaining and dependency validation, and
// the FlowCache disk tier (warm loads bit-identical to computed builds,
// checkpoint/resume, in-memory hit/miss semantics unchanged).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "activity/activity.hpp"
#include "coffe/device_model.hpp"
#include "core/flow.hpp"
#include "core/stage_graph.hpp"
#include "netlist/benchmarks.hpp"
#include "pack/pack.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "runner/artifact_store.hpp"
#include "runner/flow_cache.hpp"
#include "runner/metrics.hpp"
#include "util/codec.hpp"

namespace {

using namespace taf;
namespace fs = std::filesystem;
namespace codec = util::codec;

constexpr double kScale = 1.0 / 16;

const arch::ArchParams& test_arch() {
  static const arch::ArchParams a = arch::scaled_arch();
  return a;
}

netlist::BenchmarkSpec spec_of(const char* name) {
  for (const auto& s : netlist::vtr_suite()) {
    if (s.name == name) return s;
  }
  ADD_FAILURE() << "unknown benchmark " << name;
  return {};
}

/// Fresh directory under the system temp dir; removed by the guard.
struct TempDir {
  TempDir() {
    std::string tmpl = (fs::temp_directory_path() / "taf_store_XXXXXX").string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed");
    }
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

/// The four storable artifacts of an implementation, as codec payloads.
std::vector<std::string> artifact_bytes(const core::Implementation& impl) {
  codec::Encoder p, pl, r, a;
  pack::serialize(impl.packed, p);
  place::serialize(impl.placement, pl);
  route::serialize(impl.routes, r);
  activity::serialize(impl.activity, a);
  return {p.take(), pl.take(), r.take(), a.take()};
}

// ---------- codec primitives ----------

TEST(Codec, PrimitivesRoundTrip) {
  codec::Encoder e;
  e.u8(0xab);
  e.u32(0xdeadbeefu);
  e.u64(0x0123456789abcdefull);
  e.i32(-7);
  e.i64(-12345678901234ll);
  e.f64(-0.0);
  e.f64(1.0 / 3.0);
  e.str("artifact");
  e.i32_vec({1, -2, 3});
  e.f64_vec({0.5, -2.25});

  codec::Decoder d(e.buffer());
  EXPECT_EQ(d.u8(), 0xab);
  EXPECT_EQ(d.u32(), 0xdeadbeefu);
  EXPECT_EQ(d.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(d.i32(), -7);
  EXPECT_EQ(d.i64(), -12345678901234ll);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(d.f64()),
            std::bit_cast<std::uint64_t>(-0.0));
  EXPECT_DOUBLE_EQ(d.f64(), 1.0 / 3.0);
  EXPECT_EQ(d.str(), "artifact");
  EXPECT_EQ(d.i32_vec(), (std::vector<int>{1, -2, 3}));
  EXPECT_EQ(d.f64_vec(), (std::vector<double>{0.5, -2.25}));
  EXPECT_TRUE(d.done());
  EXPECT_NO_THROW(d.expect_done());
}

TEST(Codec, TruncationAndTrailingBytesThrow) {
  codec::Encoder e;
  e.u64(42);
  const std::string buf = e.buffer();
  // Any prefix shorter than the encoding fails the bounds check.
  for (std::size_t n = 0; n < buf.size(); ++n) {
    codec::Decoder d(std::string_view(buf).substr(0, n));
    EXPECT_THROW(d.u64(), codec::Error) << "prefix " << n;
  }
  // Unconsumed bytes are a layout drift, not silence.
  codec::Decoder d(buf);
  d.u32();
  EXPECT_THROW(d.expect_done(), codec::Error);
}

TEST(Codec, CorruptLengthPrefixFailsFastWithoutAllocating) {
  // A corrupted element count larger than the remaining input must throw
  // instead of reserving petabytes.
  codec::Encoder e;
  e.u64(1ull << 40);  // claimed vector length; no elements follow
  codec::Decoder ds(e.buffer());
  EXPECT_THROW(ds.i32_vec(), codec::Error);
  codec::Decoder df(e.buffer());
  EXPECT_THROW(df.f64_vec(), codec::Error);
  codec::Decoder dstr(e.buffer());
  EXPECT_THROW(dstr.str(), codec::Error);
}

// ---------- envelope ----------

TEST(Codec, EnvelopeRoundTripsPayload) {
  const std::string payload = "stage payload bytes \x01\x02\x00";
  const std::string file = codec::wrap("pack", payload);
  EXPECT_EQ(std::string(codec::unwrap(file, "pack")), payload);
}

TEST(Codec, EnvelopeRejectsEveryTamperMode) {
  const std::string file = codec::wrap("pack", "payload");

  std::string bad_magic = file;
  bad_magic[0] = 'X';
  EXPECT_THROW(codec::unwrap(bad_magic, "pack"), codec::Error);

  std::string stale_version = file;
  stale_version[4] = 99;  // version u32 starts at byte 4
  EXPECT_THROW(codec::unwrap(stale_version, "pack"), codec::Error);

  EXPECT_THROW(codec::unwrap(file, "route"), codec::Error);  // kind mismatch

  for (std::size_t n : {std::size_t{0}, std::size_t{10}, file.size() - 1}) {
    EXPECT_THROW(codec::unwrap(std::string_view(file).substr(0, n), "pack"),
                 codec::Error)
        << "truncated to " << n;
  }

  std::string flipped = file;
  flipped.back() = static_cast<char>(flipped.back() ^ 0x40);  // payload bit flip
  EXPECT_THROW(codec::unwrap(flipped, "pack"), codec::Error);
}

// ---------- stage graph ----------

TEST(StageGraph, AddValidatesDependencies) {
  core::FlowGraph g;
  core::FlowStage orphan;
  orphan.name = "pack";
  orphan.output = core::ArtifactKind::Packed;
  orphan.inputs = {core::ArtifactKind::Netlist};  // nothing seeded it
  EXPECT_THROW(g.add(std::move(orphan)), std::logic_error);

  g.seed_artifact(core::ArtifactKind::Netlist, 1);
  core::FlowStage pack_stage;
  pack_stage.name = "pack";
  pack_stage.output = core::ArtifactKind::Packed;
  pack_stage.inputs = {core::ArtifactKind::Netlist};
  g.add(std::move(pack_stage));

  core::FlowStage duplicate;
  duplicate.name = "pack2";
  duplicate.output = core::ArtifactKind::Packed;  // already produced
  EXPECT_THROW(g.add(std::move(duplicate)), std::logic_error);
}

TEST(StageGraph, HashChainPropagatesUpstreamChanges) {
  const auto spec = spec_of("sha");
  const coffe::DeviceModel dev = coffe::Characterizer::paper_table2_reference();
  core::ImplementOptions feedback;
  feedback.thermal_place.enabled = true;
  feedback.thermal_place.device = &dev;

  for (const core::ImplementOptions& a : {core::ImplementOptions{}, feedback}) {
    SCOPED_TRACE(a.thermal_place.enabled ? "feedback on" : "feedback off");
    core::ImplementOptions b = a;
    b.seed = a.seed + 1;
    const auto ga = core::FlowGraph::standard(spec, test_arch(), a);
    const auto gb = core::FlowGraph::standard(spec, test_arch(), b);
    ASSERT_EQ(ga.stages().size(), gb.stages().size());
    // The seed feeds the netlist (and the placer), so every stage hash
    // downstream of either must change.
    for (std::size_t i = 0; i < ga.stages().size(); ++i) {
      EXPECT_NE(ga.stages()[i].input_hash, gb.stages()[i].input_hash)
          << ga.stages()[i].name;
    }

    // A route-only knob changes route (and downstream) but not pack/place.
    core::ImplementOptions c = a;
    c.route.astar_fac += 0.125;
    const auto gc = core::FlowGraph::standard(spec, test_arch(), c);
    for (std::size_t i = 0; i < ga.stages().size(); ++i) {
      const std::string name = ga.stages()[i].name;
      if (name == "pack" || name == "place" || name == "activity") {
        EXPECT_EQ(ga.stages()[i].input_hash, gc.stages()[i].input_hash) << name;
      } else {
        EXPECT_NE(ga.stages()[i].input_hash, gc.stages()[i].input_hash) << name;
      }
    }
  }
}

// ---------- artifact store ----------

TEST(ArtifactStore, SaveLoadRoundTripAndMiss) {
  const TempDir dir;
  runner::ArtifactStore store(dir.path + "/nested/created");  // creates dirs
  std::string payload;
  EXPECT_FALSE(store.load("pack", 0x1234, payload));  // absent -> plain miss
  store.save("pack", 0x1234, "bytes");
  ASSERT_TRUE(store.load("pack", 0x1234, payload));
  EXPECT_EQ(payload, "bytes");
  EXPECT_FALSE(store.load("route", 0x1234, payload));  // kind is in the name
  const auto s = store.stats();
  EXPECT_EQ(s.disk_hits, 1u);
  EXPECT_EQ(s.disk_misses, 2u);
  EXPECT_EQ(s.disk_writes, 1u);
  EXPECT_EQ(s.disk_errors, 0u);
}

TEST(ArtifactStore, CorruptionCorpusDegradesToCleanMiss) {
  const TempDir dir;
  runner::ArtifactStore store(dir.path);
  store.save("pack", 1, "pack payload");
  store.save("place", 2, "place payload");
  store.save("route", 3, "route payload");

  // Truncate, flip the magic, and stale the version — one file each.
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    files.push_back(entry.path());
  }
  ASSERT_EQ(files.size(), 3u);
  auto patch = [](const fs::path& p, std::size_t offset, char value, bool trunc) {
    if (trunc) {
      fs::resize_file(p, offset);
      return;
    }
    std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(offset));
    f.put(value);
  };
  patch(files[0], 17, 0, /*trunc=*/true);
  patch(files[1], 0, 'X', /*trunc=*/false);   // magic
  patch(files[2], 4, 99, /*trunc=*/false);    // codec version

  std::string payload;
  std::uint64_t key = 0;
  for (const char* kind : {"pack", "place", "route"}) {
    EXPECT_FALSE(store.load(kind, ++key, payload)) << kind;
  }
  auto s = store.stats();
  EXPECT_EQ(s.disk_errors, 3u);
  EXPECT_EQ(s.disk_misses, 3u);
  EXPECT_EQ(s.disk_hits, 0u);

  // The cache self-heals: a re-save overwrites and loads cleanly.
  store.save("pack", 1, "pack payload");
  EXPECT_TRUE(store.load("pack", 1, payload));
  EXPECT_EQ(payload, "pack payload");
}

// ---------- FlowCache disk tier ----------

TEST(FlowCacheDisk, WarmLoadIsBitIdenticalToComputedBuild) {
  const TempDir dir;
  const auto spec = spec_of("sha");

  runner::ArtifactStore store_a(dir.path);
  runner::FlowCache cache_a;
  cache_a.set_artifact_store(&store_a);
  runner::TaskMetrics metrics;
  std::vector<std::string> cold_bytes;
  {
    const runner::ArtifactCounterScope scope(metrics);
    cold_bytes = artifact_bytes(cache_a.implementation(spec, test_arch(), kScale));
  }
  {
    const auto s = cache_a.stats();
    EXPECT_EQ(s.impl_misses, 1u);
    EXPECT_EQ(s.disk_hits, 0u);
    EXPECT_EQ(s.disk_misses, 4u);   // pack, place, route, activity
    EXPECT_EQ(s.disk_writes, 4u);
    // The thread-local counters attribute the same traffic to the task.
    EXPECT_EQ(metrics.disk_misses, 4u);
    EXPECT_EQ(metrics.disk_writes, 4u);
  }

  // A fresh process (modelled by a fresh cache+store over the same
  // directory) reloads every stage and reproduces the artifacts bit for
  // bit.
  runner::ArtifactStore store_b(dir.path);
  runner::FlowCache cache_b;
  cache_b.set_artifact_store(&store_b);
  const auto warm_bytes =
      artifact_bytes(cache_b.implementation(spec, test_arch(), kScale));
  EXPECT_EQ(warm_bytes, cold_bytes);
  const auto s = cache_b.stats();
  EXPECT_EQ(s.impl_misses, 1u);  // memory semantics: still a memory miss
  EXPECT_EQ(s.disk_hits, 4u);
  EXPECT_EQ(s.disk_misses, 0u);
  EXPECT_EQ(s.disk_writes, 0u);  // loads are never re-stored
}

TEST(FlowCacheDisk, WarmAwareBuildIsBitIdenticalToColdBuild) {
  // With the feedback edge on, thermal_place stores the refined
  // placement and its routes as one artifact; a warm build reloads all
  // five storable stages and reproduces the cold build bit for bit.
  const TempDir dir;
  const auto spec = spec_of("diffeq1");
  const coffe::DeviceModel dev = coffe::Characterizer::paper_table2_reference();
  core::ImplementOptions opt;
  opt.thermal_place.enabled = true;
  opt.thermal_place.device = &dev;

  std::vector<std::string> cold_bytes;
  {
    runner::ArtifactStore store(dir.path);
    runner::FlowCache cache;
    cache.set_artifact_store(&store);
    cold_bytes = artifact_bytes(cache.implementation(spec, test_arch(), kScale, opt));
    EXPECT_EQ(cache.stats().disk_writes, 5u);
  }
  runner::ArtifactStore store(dir.path);
  runner::FlowCache cache;
  cache.set_artifact_store(&store);
  const std::uint64_t solves = core::thread_flow_counters().thermal_adjoint_solves;
  EXPECT_EQ(artifact_bytes(cache.implementation(spec, test_arch(), kScale, opt)), cold_bytes);
  EXPECT_EQ(core::thread_flow_counters().thermal_adjoint_solves, solves);  // not rerun
  const auto s = cache.stats();
  EXPECT_EQ(s.disk_hits, 5u);
  EXPECT_EQ(s.disk_misses, 0u);
  EXPECT_EQ(s.disk_writes, 0u);
  EXPECT_EQ(s.disk_errors, 0u);
}

TEST(FlowCacheDisk, ResumeRecomputesOnlyTheMissingStage) {
  const TempDir dir;
  const auto spec = spec_of("sha");
  std::vector<std::string> cold_bytes;
  {
    runner::ArtifactStore store(dir.path);
    runner::FlowCache cache;
    cache.set_artifact_store(&store);
    cold_bytes = artifact_bytes(cache.implementation(spec, test_arch(), kScale));
  }
  // Model a run killed mid-route: its artifact never got renamed in.
  int removed = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().filename().string().rfind("route-", 0) == 0) {
      fs::remove(entry.path());
      ++removed;
    }
  }
  ASSERT_EQ(removed, 1);

  runner::ArtifactStore store(dir.path);
  runner::FlowCache cache;
  cache.set_artifact_store(&store);
  const auto resumed = artifact_bytes(cache.implementation(spec, test_arch(), kScale));
  EXPECT_EQ(resumed, cold_bytes);
  const auto s = cache.stats();
  EXPECT_EQ(s.disk_hits, 3u);    // pack, place, activity reloaded
  EXPECT_EQ(s.disk_misses, 1u);  // route recomputed...
  EXPECT_EQ(s.disk_writes, 1u);  // ...and stored for the next run
}

TEST(FlowCacheDisk, InMemoryHitSemanticsUnchangedByDiskTier) {
  // Regression pin: attaching the disk tier must not change the
  // in-memory hit/miss accounting, and an in-memory hit must never touch
  // the disk (no double counting).
  const auto spec = spec_of("sha");

  runner::FlowCache plain;
  plain.implementation(spec, test_arch(), kScale);
  plain.implementation(spec, test_arch(), kScale);
  {
    const auto s = plain.stats();
    EXPECT_EQ(s.impl_misses, 1u);
    EXPECT_EQ(s.impl_hits, 1u);
    EXPECT_EQ(s.disk_hits, 0u);  // no store attached: disk tier inert
    EXPECT_EQ(s.disk_misses, 0u);
    EXPECT_EQ(s.disk_writes, 0u);
  }

  const TempDir dir;
  runner::ArtifactStore store(dir.path);
  runner::FlowCache cache;
  cache.set_artifact_store(&store);
  cache.implementation(spec, test_arch(), kScale);
  const auto after_build = cache.stats();
  cache.implementation(spec, test_arch(), kScale);  // in-memory hit
  const auto after_hit = cache.stats();
  EXPECT_EQ(after_hit.impl_misses, 1u);
  EXPECT_EQ(after_hit.impl_hits, 1u);
  EXPECT_EQ(after_hit.disk_hits, after_build.disk_hits);
  EXPECT_EQ(after_hit.disk_misses, after_build.disk_misses);
  EXPECT_EQ(after_hit.disk_writes, after_build.disk_writes);
}

// ---------- suite-wide round trip ----------

TEST(ArtifactRoundTrip, EverySuiteBenchmarkReserializesByteIdentical) {
  // The byte-exactness contract behind the disk tier: for every suite
  // benchmark, serialize -> deserialize -> re-serialize of all four
  // storable artifacts reproduces the original bytes exactly.
  for (const auto& spec : netlist::vtr_suite()) {
    const auto impl =
        core::implement(netlist::scaled(spec, kScale), test_arch());

    codec::Encoder e1;
    pack::serialize(impl->packed, e1);
    codec::Decoder d1(e1.buffer());
    const pack::PackedNetlist packed2 = pack::deserialize(d1);
    d1.expect_done();
    codec::Encoder e1b;
    pack::serialize(packed2, e1b);
    EXPECT_EQ(e1b.buffer(), e1.buffer()) << spec.name << " pack";

    codec::Encoder e2;
    place::serialize(impl->placement, e2);
    codec::Decoder d2(e2.buffer());
    const place::Placement placement2 = place::deserialize(d2);
    d2.expect_done();
    codec::Encoder e2b;
    place::serialize(placement2, e2b);
    EXPECT_EQ(e2b.buffer(), e2.buffer()) << spec.name << " place";

    codec::Encoder e3;
    route::serialize(impl->routes, e3);
    codec::Decoder d3(e3.buffer());
    const route::RouteResult routes2 = route::deserialize(d3);
    d3.expect_done();
    codec::Encoder e3b;
    route::serialize(routes2, e3b);
    EXPECT_EQ(e3b.buffer(), e3.buffer()) << spec.name << " route";

    codec::Encoder e4;
    activity::serialize(impl->activity, e4);
    codec::Decoder d4(e4.buffer());
    const std::vector<activity::SignalStats> activity2 = activity::deserialize(d4);
    d4.expect_done();
    codec::Encoder e4b;
    activity::serialize(activity2, e4b);
    EXPECT_EQ(e4b.buffer(), e4.buffer()) << spec.name << " activity";
  }
}

}  // namespace
