// ActivityTrace parser/codec fuzz suite (ISSUE 8), mirroring the
// service protocol fuzz corpus: truncation at every byte, hostile field
// values (non-monotone timestamps, NaN/negative utilizations, oversized
// counts rejected before allocation), and a seeded mutation corpus —
// every malformed input must throw a typed exception
// (std::invalid_argument from the text parser / semantic validation,
// util::codec::Error from the binary layer), never crash, hang, or
// return a half-parsed trace. The CI sanitize job runs this binary
// under ASan/UBSan.
//
// This file hand-crafts malformed trace text and envelope bytes, so it
// is the one sanctioned suppression of the trace-codec-seam lint rule
// (tools/taf-analyze.suppressions).

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamic.hpp"
#include "util/codec.hpp"
#include "util/rng.hpp"

namespace {

using namespace taf;
using core::ActivityTrace;
using core::TraceSegment;
namespace codec = util::codec;

ActivityTrace valid_trace() {
  ActivityTrace t;
  t.blocks = 3;
  t.segments.push_back({units::Seconds{0.25e-3}, {1.0, 0.25, 0.0}});
  t.segments.push_back({units::Seconds{1.0e-3}, {0.1, 1.0, 0.5}});
  t.segments.push_back({units::Seconds{4.0e-3}, {0.0, 0.0, 2.5}});
  return t;
}

TEST(TraceFuzz, TextRoundTripIsExactAndCanonical) {
  const ActivityTrace t = valid_trace();
  const std::string text = t.to_text();
  const ActivityTrace back = ActivityTrace::parse_text(text);
  EXPECT_EQ(back, t);  // %.17g round-trips every double bit-exactly
  EXPECT_EQ(ActivityTrace::parse_text(back.to_text()), t);
  EXPECT_EQ(back.to_text(), text);  // canonical: re-rendering is identical

  // Comments and blank lines are skipped.
  const std::string commented = "# schedule\n\n" + text + "# trailing comment\n";
  EXPECT_EQ(ActivityTrace::parse_text(commented), t);
}

TEST(TraceFuzz, EnvelopeRoundTripIsExactAndByteIdentical) {
  const ActivityTrace t = valid_trace();
  const std::string envelope = t.to_envelope();
  const ActivityTrace back = ActivityTrace::from_envelope(envelope);
  EXPECT_EQ(back, t);
  EXPECT_EQ(back.to_envelope(), envelope);
}

TEST(TraceFuzz, TextTruncatedAtEveryByteNeverCrashes) {
  const std::string text = valid_trace().to_text();
  int parsed_ok = 0;
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::string_view prefix = std::string_view(text).substr(0, cut);
    try {
      const ActivityTrace t = ActivityTrace::parse_text(prefix);
      t.validate();  // anything that parses must already be valid
      ++parsed_ok;
    } catch (const std::invalid_argument&) {
      // the typed rejection — fine
    }
  }
  // The full text and any prefix ending exactly on a segment boundary
  // parse; everything else must have thrown.
  EXPECT_GE(parsed_ok, 1);
  EXPECT_LT(parsed_ok, static_cast<int>(text.size()));
}

TEST(TraceFuzz, EnvelopeTruncatedAtEveryByteThrows) {
  const std::string envelope = valid_trace().to_envelope();
  for (std::size_t cut = 0; cut < envelope.size(); ++cut) {
    EXPECT_THROW(ActivityTrace::from_envelope(
                     std::string_view(envelope).substr(0, cut)),
                 codec::Error)
        << "prefix of " << cut << " bytes";
  }
  EXPECT_EQ(ActivityTrace::from_envelope(envelope), valid_trace());
}

TEST(TraceFuzz, HostileTextIsRejectedWithTypedErrors) {
  const auto rejects = [](const std::string& text, const char* label) {
    SCOPED_TRACE(label);
    EXPECT_THROW(ActivityTrace::parse_text(text), std::invalid_argument);
  };
  rejects("", "empty");
  rejects("taf-trace v2\nblocks 1\n1 1\n", "wrong version");
  rejects("not-a-trace\nblocks 1\n1 1\n", "bad magic");
  rejects("taf-trace v1\nblocks 0\n1 1\n", "zero blocks");
  rejects("taf-trace v1\nblocks 257\n1 1\n", "blocks over the cap");
  rejects("taf-trace v1\nblocks -4\n1 1\n", "negative blocks");
  rejects("taf-trace v1\nblocks 1\n", "no segments");
  rejects("taf-trace v1\nblocks 1\n1 1\n0.5 1\n", "non-monotone t_end");
  rejects("taf-trace v1\nblocks 1\n1 1\n1 1\n", "repeated t_end");
  rejects("taf-trace v1\nblocks 1\n0 1\n", "t_end not positive");
  rejects("taf-trace v1\nblocks 1\n-1 1\n", "negative t_end");
  rejects("taf-trace v1\nblocks 1\nnan 1\n", "NaN t_end");
  rejects("taf-trace v1\nblocks 1\ninf 1\n", "infinite t_end");
  rejects("taf-trace v1\nblocks 1\n1 nan\n", "NaN utilization");
  rejects("taf-trace v1\nblocks 1\n1 -0.5\n", "negative utilization");
  rejects("taf-trace v1\nblocks 1\n1 101\n", "utilization over the cap");
  rejects("taf-trace v1\nblocks 2\n1 1\n", "too few utilizations");
  rejects("taf-trace v1\nblocks 1\n1 1 1\n", "too many utilizations");
  rejects("taf-trace v1\nblocks 1\n1 1 garbage\n", "trailing garbage");
  rejects("taf-trace v1\nblocks two\n1 1\n", "non-numeric block count");

  // Oversized segment count: rejected while reading, without building a
  // 4097-segment trace first.
  std::string big = "taf-trace v1\nblocks 1\n";
  for (int i = 0; i < core::kMaxTraceSegments + 1; ++i) {
    big += std::to_string(i + 1) + " 1\n";
  }
  rejects(big, "segment count over the cap");
}

TEST(TraceFuzz, OversizedBinaryCountsFailBeforeAllocation) {
  // Hand-build payloads whose counts promise far more data than the
  // payload holds: deserialize must throw codec::Error from the bounds
  // check, never attempt the allocation.
  {
    codec::Encoder e;
    e.i32(1);                  // blocks
    e.u64(0xffffffffffffull);  // absurd segment count
    const std::string bytes = e.take();  // Decoder holds a view, not a copy
    codec::Decoder d(bytes);
    EXPECT_THROW(ActivityTrace::deserialize(d), codec::Error);
  }
  {
    codec::Encoder e;
    e.i32(core::kMaxTraceBlocks + 1);  // blocks over the cap
    e.u64(1);
    e.f64(1.0);
    const std::string bytes = e.take();
    codec::Decoder d(bytes);
    EXPECT_THROW(ActivityTrace::deserialize(d), codec::Error);
  }
  {
    codec::Encoder e;
    e.i32(-1);  // negative blocks
    e.u64(1);
    const std::string bytes = e.take();
    codec::Decoder d(bytes);
    EXPECT_THROW(ActivityTrace::deserialize(d), codec::Error);
  }
}

TEST(TraceFuzz, DeserializeIsStructuralOnlyAndFromEnvelopeValidates) {
  // A well-formed payload with out-of-domain *values* passes the binary
  // layer (structural) but is caught by validate()/from_envelope — the
  // error-classification split the service protocol depends on.
  ActivityTrace bad = valid_trace();
  bad.segments[1].t_end = units::Seconds{0.1e-3};  // non-monotone
  codec::Encoder e;
  bad.serialize(e);
  const std::string bytes = e.take();
  codec::Decoder d(bytes);
  const ActivityTrace decoded = ActivityTrace::deserialize(d);
  EXPECT_EQ(decoded, bad);  // structural decode succeeded
  EXPECT_THROW(decoded.validate(), std::invalid_argument);
  EXPECT_THROW(ActivityTrace::from_envelope(bad.to_envelope()),
               std::invalid_argument);
}

TEST(TraceFuzz, MutationCorpusNeverCrashes) {
  // 2000 seeded mutations over the valid envelope: every outcome must be
  // a valid trace or a typed exception. The envelope checksum catches
  // most mutations; the rest exercise the payload bounds checks.
  const std::string seed_envelope = valid_trace().to_envelope();
  util::Rng rng(20260808);
  int survived = 0;
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = seed_envelope;
    const int edits = 1 + static_cast<int>(rng.next_below(8));
    for (int e = 0; e < edits; ++e) {
      if (mutated.empty()) break;
      const std::size_t pos = rng.next_below(static_cast<std::uint32_t>(mutated.size()));
      switch (rng.next_below(3)) {
        case 0:  // bit flip
          mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.next_below(8)));
          break;
        case 1:  // byte overwrite
          mutated[pos] = static_cast<char>(rng.next_below(256));
          break;
        default:  // truncate at pos
          mutated.resize(pos);
          break;
      }
    }
    try {
      const ActivityTrace t = ActivityTrace::from_envelope(mutated);
      t.validate();  // from_envelope validates; must not throw again
      ++survived;
    } catch (const codec::Error&) {
    } catch (const std::invalid_argument&) {
    }
  }
  // The unmutated seed never appears (>= 1 edit), and surviving a
  // checksum with random edits is vanishingly rare.
  EXPECT_LE(survived, 2);
}

TEST(TraceFuzz, MutatedTextCorpusNeverCrashes) {
  const std::string seed_text = valid_trace().to_text();
  util::Rng rng(424242);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = seed_text;
    const int edits = 1 + static_cast<int>(rng.next_below(4));
    for (int e = 0; e < edits; ++e) {
      if (mutated.empty()) break;
      const std::size_t pos = rng.next_below(static_cast<std::uint32_t>(mutated.size()));
      switch (rng.next_below(4)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.next_below(128));
          break;
        case 1:
          mutated.insert(pos, 1, static_cast<char>('0' + rng.next_below(10)));
          break;
        case 2:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.resize(pos);
          break;
      }
    }
    try {
      const ActivityTrace t = ActivityTrace::parse_text(mutated);
      t.validate();
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(TraceFuzz, DutyCycleBuilderProducesValidTraces) {
  for (const double duty : {0.1, 0.5, 1.0}) {
    const ActivityTrace t =
        ActivityTrace::duty_cycle(4, units::Seconds{1e-3}, duty, 1.0, 0.05);
    t.validate();
    EXPECT_EQ(t.blocks, 1);
    EXPECT_DOUBLE_EQ(t.duration().value(), 4e-3);
    // Round-trips like any other trace.
    EXPECT_EQ(ActivityTrace::parse_text(t.to_text()), t);
    EXPECT_EQ(ActivityTrace::from_envelope(t.to_envelope()), t);
  }
  EXPECT_THROW(ActivityTrace::duty_cycle(0, units::Seconds{1e-3}, 0.5, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ActivityTrace::duty_cycle(4, units::Seconds{1e-3}, 0.0, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ActivityTrace::duty_cycle(4, units::Seconds{1e-3}, 1.5, 1.0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(ActivityTrace::duty_cycle(4, units::Seconds{-1.0}, 0.5, 1.0, 0.0),
               std::invalid_argument);
}

}  // namespace
