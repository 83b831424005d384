// Snapshot container + fail-closed restore under hostile bytes.
//
// The container layer (util/snapshot_io) promises that a parser which
// constructs successfully is working on a bit-exact copy of what the
// writer produced, and the engine layer (core/snapshot) promises that any
// defect — truncation, bit flip, version bump, params drift — surfaces as
// a typed util::SnapshotError *before* a single engine field is mutated.
// This suite attacks both promises directly: a truncation sweep over every
// sampled prefix length, a single-bit-flip sweep across the file, crafted
// version/magic/params corruption, and an engine-unchanged check after
// every failed restore. The sweeps run under the regular sanitizer CI
// jobs, so any out-of-bounds read in the decode path is fatal, not silent.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/runner.hpp"
#include "core/engine.hpp"
#include "core/output.hpp"
#include "core/snapshot.hpp"
#include "util/snapshot_io.hpp"
#include "workload/generator.hpp"

namespace ipd {
namespace {

using util::SnapshotErrc;
using util::SnapshotError;

TEST(Crc64, KnownVector) {
  // CRC-64/XZ check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(util::crc64(s, 9), 0x995dc9bbdf1939faull);
}

TEST(Crc64, Chainable) {
  const char* s = "123456789";
  const std::uint64_t once = util::crc64(s, 9);
  const std::uint64_t split = util::crc64(s + 4, 5, util::crc64(s, 4));
  EXPECT_EQ(once, split);
}

TEST(ByteRoundTrip, PrimitivesAndStrings) {
  util::ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(0.1);  // not exactly representable: must survive bit-exactly
  w.str("hello");
  const std::string buf = std::move(w).take();

  util::ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_NO_THROW(r.expect_done());
}

TEST(ByteRoundTrip, ReaderBoundsAndTrailing) {
  util::ByteWriter w;
  w.u32(7);
  const std::string buf = std::move(w).take();
  {
    util::ByteReader r(buf);
    r.u16();
    EXPECT_THROW(r.u32(), SnapshotError);  // only 2 bytes left
  }
  {
    util::ByteReader r(buf);
    r.u16();
    EXPECT_THROW(r.expect_done(), SnapshotError);  // 2 unconsumed bytes
  }
  {
    // A hostile length prefix cannot walk past the buffer.
    util::ByteWriter h;
    h.u32(0xffffffffu);
    const std::string hostile = std::move(h).take();
    util::ByteReader r(hostile);
    EXPECT_THROW(r.str(), SnapshotError);
  }
}

TEST(Container, RoundTrip) {
  util::SnapshotBuilder builder(3);
  builder.add_section(1, "alpha");
  builder.add_section(7, std::string("\x00\x01\x02", 3));
  const std::string file = std::move(builder).finish();

  const util::SnapshotParser parser(file);
  EXPECT_EQ(parser.format_version(), 3u);
  EXPECT_TRUE(parser.has_section(1));
  EXPECT_TRUE(parser.has_section(7));
  EXPECT_FALSE(parser.has_section(2));
  EXPECT_EQ(parser.section(1), "alpha");
  EXPECT_EQ(parser.section(7), std::string_view("\x00\x01\x02", 3));
  EXPECT_THROW(parser.section(2), SnapshotError);
}

TEST(Container, EmptyAndGarbage) {
  EXPECT_THROW(util::SnapshotParser{std::string_view{}}, SnapshotError);
  EXPECT_THROW(util::SnapshotParser{std::string_view{"IPD"}}, SnapshotError);
  EXPECT_THROW(util::SnapshotParser{std::string_view{
                   "definitely not a snapshot file at all.."}},
               SnapshotError);
  try {
    const util::SnapshotParser parser{std::string_view{
        "XXXXXXXX0123456789012345678901234567890123456789"}};
    FAIL() << "parsed garbage";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::kBadMagic);
  }
}

TEST(Container, FileIo) {
  const std::string path = testing::TempDir() + "snapshot_io_roundtrip.bin";
  util::SnapshotBuilder builder(1);
  builder.add_section(1, "payload");
  const std::string file = std::move(builder).finish();
  util::write_file_atomic(path, file);
  EXPECT_EQ(util::read_file(path), file);
  // Atomic publish: a second write replaces the content wholesale.
  util::SnapshotBuilder builder2(1);
  builder2.add_section(1, "other");
  const std::string file2 = std::move(builder2).finish();
  util::write_file_atomic(path, file2);
  EXPECT_EQ(util::read_file(path), file2);
  try {
    util::read_file(testing::TempDir() + "does_not_exist.bin");
    FAIL() << "read a missing file";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::kIo);
  }
}

/// A small engine with real structure: splits, classifications, a few
/// cycles of history. Shared donor for the corruption sweeps.
class SnapshotCorruption : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::ScenarioConfig scenario = workload::small_test();
    scenario.flows_per_minute = 3000;
    params_ = new core::IpdParams(workload::scaled_params(scenario));
    workload::FlowGenerator gen(scenario);
    engine_ = new core::IpdEngine(*params_);
    analysis::BinnedRunner runner(*engine_, nullptr);
    core::SnapshotClock clock;
    runner.on_snapshot = [&runner, &clock](util::Timestamp ts,
                                           const core::Snapshot&,
                                           const core::LpmTable&) {
      clock = runner.snapshot_clock(ts);
    };
    constexpr util::Timestamp kStart = 18 * util::kSecondsPerHour;
    gen.run(kStart, kStart + 22 * 60,
            [&runner](const netflow::FlowRecord& r) { runner.offer(r); });
    runner.finish();
    snapshot_ = new std::string(core::save_snapshot(*engine_, clock));
    baseline_ = new std::string(state_fingerprint());
    ASSERT_GT(engine_->stats().total_splits, 0u);
    ASSERT_GT(snapshot_->size(), 256u);
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete params_;
    delete snapshot_;
    delete baseline_;
    engine_ = nullptr;
    params_ = nullptr;
    snapshot_ = nullptr;
    baseline_ = nullptr;
  }

  /// Everything restore could possibly disturb, in comparable form.
  static std::string state_fingerprint() {
    std::string out;
    for (const auto& row : core::take_snapshot(*engine_, 0)) {
      out += core::format_row(row);
      out += '\n';
    }
    const auto stats = engine_->stats();
    out += std::to_string(stats.flows_ingested) + "/" +
           std::to_string(stats.cycles_run) + "/" +
           std::to_string(stats.total_classifications) + "/" +
           std::to_string(stats.total_splits) + "/" +
           std::to_string(stats.total_joins) + "/" +
           std::to_string(stats.total_drops) + "/" +
           std::to_string(trie_bytes(*engine_));
    return out;
  }

  /// Exact trie heap (arena + per-node side structures), both families.
  static std::size_t trie_bytes(core::IpdEngine& engine) {
    return engine.trie(net::Family::V4).memory_bytes() +
           engine.trie(net::Family::V6).memory_bytes();
  }

  /// The corrupted buffer must fail with a typed error and leave the
  /// engine bit-for-bit untouched.
  static void expect_rejected(std::string_view data, const char* label) {
    SCOPED_TRACE(label);
    bool threw = false;
    try {
      core::restore_snapshot(*engine_, data);
    } catch (const SnapshotError&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "corrupted snapshot was accepted";
    EXPECT_EQ(state_fingerprint(), *baseline_)
        << "failed restore mutated the engine";
  }

  static core::IpdParams* params_;
  static core::IpdEngine* engine_;
  static std::string* snapshot_;
  static std::string* baseline_;
};

core::IpdParams* SnapshotCorruption::params_ = nullptr;
core::IpdEngine* SnapshotCorruption::engine_ = nullptr;
std::string* SnapshotCorruption::snapshot_ = nullptr;
std::string* SnapshotCorruption::baseline_ = nullptr;

TEST_F(SnapshotCorruption, IntactSnapshotRestores) {
  core::IpdEngine fresh(*params_);
  EXPECT_NO_THROW(core::restore_snapshot(fresh, *snapshot_));
  EXPECT_EQ(trie_bytes(fresh), trie_bytes(*engine_));
  const auto info = core::read_snapshot_info(*snapshot_);
  EXPECT_EQ(info.format_version, core::kSnapshotFormatVersion);
  EXPECT_EQ(info.params_hash, core::params_hash(*params_));
  EXPECT_FALSE(info.sharded);
  EXPECT_EQ(info.stats.flows_ingested, engine_->stats().flows_ingested);
  EXPECT_EQ(info.lpm_rows, core::read_snapshot_lpm(*snapshot_).size());
}

TEST_F(SnapshotCorruption, TruncationSweep) {
  const std::string& snap = *snapshot_;
  std::vector<std::size_t> lengths;
  // Dense near both ends (header / trailer structures), prime-strided
  // through the middle so every alignment class gets hit.
  for (std::size_t n = 0; n < std::min<std::size_t>(128, snap.size()); ++n) {
    lengths.push_back(n);
  }
  for (std::size_t n = 128; n + 64 < snap.size(); n += 97) lengths.push_back(n);
  for (std::size_t back = 1; back <= 64 && back < snap.size(); ++back) {
    lengths.push_back(snap.size() - back);
  }
  for (const std::size_t n : lengths) {
    expect_rejected(std::string_view(snap).substr(0, n),
                    ("truncate to " + std::to_string(n)).c_str());
  }
}

TEST_F(SnapshotCorruption, BitFlipSweep) {
  // Every byte is covered by the whole-file CRC (or *is* the CRC), so any
  // single-bit flip must be rejected. Stride keeps the sweep fast under
  // sanitizers while still touching header, payload and trailer bytes.
  std::string mutant = *snapshot_;
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < std::min<std::size_t>(64, mutant.size()); ++i) {
    offsets.push_back(i);
  }
  for (std::size_t i = 64; i < mutant.size(); i += 131) offsets.push_back(i);
  for (std::size_t back = 1; back <= 24 && back < mutant.size(); ++back) {
    offsets.push_back(mutant.size() - back);
  }
  for (const std::size_t i : offsets) {
    const int bit = static_cast<int>(i % 8);
    mutant[i] = static_cast<char>(mutant[i] ^ (1 << bit));
    expect_rejected(mutant, ("flip byte " + std::to_string(i) + " bit " +
                             std::to_string(bit))
                                .c_str());
    mutant[i] = static_cast<char>(mutant[i] ^ (1 << bit));  // restore
  }
  ASSERT_EQ(mutant, *snapshot_);
}

TEST_F(SnapshotCorruption, VersionBumpRejected) {
  // Rebuild the container with the same (valid) sections under a future
  // format version: every checksum passes, so the rejection must come
  // from the version gate itself.
  const util::SnapshotParser parser(*snapshot_);
  util::SnapshotBuilder builder(core::kSnapshotFormatVersion + 1);
  for (const std::uint32_t id :
       {core::kSectionMeta, core::kSectionParams, core::kSectionTrieV4,
        core::kSectionTrieV6, core::kSectionLpm}) {
    builder.add_section(id, std::string(parser.section(id)));
  }
  const std::string future = std::move(builder).finish();
  try {
    core::restore_snapshot(*engine_, future);
    FAIL() << "future-version snapshot was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::kBadVersion);
  }
  EXPECT_EQ(state_fingerprint(), *baseline_);
}

TEST_F(SnapshotCorruption, MissingSectionRejected) {
  const util::SnapshotParser parser(*snapshot_);
  util::SnapshotBuilder builder(core::kSnapshotFormatVersion);
  // Drop the v4 trie section; framing and checksums stay valid.
  for (const std::uint32_t id :
       {core::kSectionMeta, core::kSectionParams, core::kSectionTrieV6,
        core::kSectionLpm}) {
    builder.add_section(id, std::string(parser.section(id)));
  }
  expect_rejected(std::move(builder).finish(), "missing trie section");
}

TEST_F(SnapshotCorruption, ParamsMismatchRejected) {
  core::IpdParams other = *params_;
  other.q = other.q * 0.99;
  core::IpdEngine fresh(other);
  try {
    core::restore_snapshot(fresh, *snapshot_);
    FAIL() << "restore across params drift was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::kParamsMismatch);
  }
  // The mismatching engine must stay empty and usable.
  EXPECT_EQ(fresh.stats().flows_ingested, 0u);
}

TEST_F(SnapshotCorruption, MagicCorruptionIsBadMagic) {
  std::string mutant = *snapshot_;
  mutant[0] = 'X';
  try {
    core::restore_snapshot(*engine_, mutant);
    FAIL() << "bad magic accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::kBadMagic);
  }
  EXPECT_EQ(state_fingerprint(), *baseline_);
}

TEST_F(SnapshotCorruption, ParamsEncodingIsCanonical) {
  EXPECT_EQ(core::encode_params(*params_), core::encode_params(*params_));
  core::IpdParams other = *params_;
  other.t = other.t + 1;
  EXPECT_NE(core::encode_params(*params_), core::encode_params(other));
  EXPECT_NE(core::params_hash(*params_), core::params_hash(other));
}

// Little-endian byte images of snapshot fields, for patching a section.
std::string le_bytes(std::uint64_t v, int width) {
  std::string out(static_cast<std::size_t>(width), '\0');
  for (int i = 0; i < width; ++i) out[i] = static_cast<char>(v >> (8 * i));
  return out;
}
std::string le_f64(double v) { return le_bytes(std::bit_cast<std::uint64_t>(v), 8); }

// `snapshot` with every occurrence of each `from` in its v4 trie section
// replaced by the paired `to` (same width), re-sealed so the checksums hold.
std::string patch_trie_v4(
    const std::string& snapshot,
    const std::vector<std::pair<std::string, std::string>>& edits) {
  const util::SnapshotParser parser(snapshot);
  std::string trie(parser.section(core::kSectionTrieV4));
  for (const auto& [from, to] : edits) {
    std::size_t hits = 0;
    for (std::size_t at = trie.find(from); at != std::string::npos;
         at = trie.find(from, at + to.size())) {
      trie.replace(at, from.size(), to);
      ++hits;
    }
    EXPECT_GT(hits, 0u) << "patch pattern not found";
  }
  util::SnapshotBuilder builder(core::kSnapshotFormatVersion);
  for (const std::uint32_t id :
       {core::kSectionMeta, core::kSectionParams, core::kSectionTrieV4,
        core::kSectionTrieV6, core::kSectionLpm}) {
    builder.add_section(id, id == core::kSectionTrieV4
                                ? trie
                                : std::string(parser.section(id)));
  }
  return std::move(builder).finish();
}

TEST(SnapshotValidation, MonitoringCountersMustMatchPerIpDetail) {
  // Expiry subtracts departing per-IP entries from a monitoring range's
  // aggregate as doubles, which is only sound when every per-IP count is
  // an integer in [1, 2^53), the aggregate is their exact sum below 2^53,
  // and it has the capacity a rebuild gives. A checksum-valid snapshot
  // that breaks any of these is rejected before the engine is touched.
  const core::IpdParams params;
  const topology::LinkId link{1, 0};
  const auto ip = [](const char* text) {
    return net::IpAddress::from_string(text);
  };
  // One link's counts entry as encode_counts lays it out: capacity u64,
  // size u32, router u32, iface u16, count f64.
  const auto counts_entry = [&](std::uint64_t cap, double count) {
    return le_bytes(cap, 8) + le_bytes(1, 4) + le_bytes(link.router, 4) +
           le_bytes(link.iface, 2) + le_f64(count);
  };
  constexpr std::uint64_t kExact = core::IngressCounts::kExactLimit;
  constexpr std::uint64_t kW = 0x1234567;  // a weight no other field holds

  struct Case {
    const char* name;
    std::vector<std::pair<const char*, std::uint64_t>> samples;
    std::vector<std::pair<std::string, std::string>> edits;
  };
  const std::vector<Case> cases = {
      {"aggregate count off by two",
       {{"10.0.0.1", 7}},
       {{le_f64(7.0) + le_f64(7.0), le_f64(9.0) + le_f64(7.0)}}},
      // Two per-IP zeros re-sum to the zero aggregate bit for bit; the
      // first expiry would drop the link the second still names.
      {"zero per-IP counts",
       {{"10.0.0.1", kW}, {"10.0.2.1", kW}},
       {{le_bytes(kW, 8), le_bytes(0, 8)}, {le_f64(2.0 * kW), le_f64(0.0)}}},
      // (2^53 - 1) + 1 + 1 rounds to 2^53: the re-sum matches the
      // aggregate, but expiring the first two IPs would reach 0 while the
      // third still holds the link.
      {"sum rounded past 2^53",
       {{"10.0.0.1", kExact - 1}, {"10.0.2.1", 1}, {"10.0.3.1", 1}},
       {}},
      {"per-IP count of 2^53", {{"10.0.0.1", kExact}}, {}},
      {"aggregate capacity no rebuild gives",
       {{"10.0.0.1", 7}},
       {{counts_entry(2, 7.0), counts_entry(4, 7.0)}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    core::IpdEngine donor(params);
    for (const auto& [addr, weight] : c.samples) {
      donor.ingest(100, ip(addr), link, weight);
    }
    const std::string intact =
        core::save_snapshot(donor, core::SnapshotClock{});
    const std::string mutant =
        c.edits.empty() ? intact : patch_trie_v4(intact, c.edits);
    if (!c.edits.empty()) {
      core::IpdEngine restored(params);
      EXPECT_NO_THROW(core::restore_snapshot(restored, intact));
    }
    core::IpdEngine target(params);
    try {
      core::restore_snapshot(target, mutant);
      ADD_FAILURE() << "inconsistent monitoring counters were accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.code(), SnapshotErrc::kBadValue) << e.what();
    }
    EXPECT_EQ(target.stats().flows_ingested, 0u);
  }
}

}  // namespace
}  // namespace ipd
