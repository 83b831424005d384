// Trie-layout differential: the pooled (arena-backed) trie must be
// *byte-identical* to the seed-revision trie on the same workload.
//
// Unlike test_shard_differential — which compares two live engines in the
// same binary — this suite compares against a committed fixture generated
// at the pre-refactor revision (after IngressCounts canonicalisation, so
// the reference itself is iteration-order independent). Every snapshot
// dump, per-cycle structural census and RangeTransition (including exact
// float payloads, serialized as hexfloats) must match the fixture across
// {1,4,16} shards x {1,8} threads. Any behavioural drift introduced by
// the NodePool / FlatIpTable layout shows up as a byte diff here.
//
// Regenerating (only legitimate when the *semantics* change on purpose):
//   IPD_REGEN_FIXTURES=1 ./test_trie_layout
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "core/engine.hpp"
#include "core/output.hpp"
#include "workload/generator.hpp"

namespace ipd {
namespace {

struct RunResult {
  std::vector<std::string> dumps;
  std::vector<core::CycleStats> cycles;
  std::vector<core::RangeTransition> transitions;
  core::EngineStats stats;
};

RunResult run_workload(core::IpdEngine& engine,
                       const std::vector<netflow::FlowRecord>& records,
                       std::size_t ingest_batch) {
  core::CycleDeltaLog deltas(std::size_t{1} << 20);
  engine.observe({.cycle_deltas = &deltas});
  analysis::RunnerConfig config;
  config.ingest_batch = ingest_batch;
  analysis::BinnedRunner runner(engine, nullptr, config);
  RunResult result;
  runner.on_snapshot = [&result](util::Timestamp, const core::Snapshot& snap,
                                 const core::LpmTable&) {
    std::string dump;
    for (const auto& row : snap) {
      dump += core::format_row(row);
      dump += '\n';
    }
    result.dumps.push_back(std::move(dump));
  };
  for (const auto& record : records) runner.offer(record);
  runner.finish();
  result.cycles = runner.cycles();
  result.transitions = deltas.drain();
  result.stats = engine.stats();
  EXPECT_EQ(deltas.dropped(), 0u);
  return result;
}

workload::ScenarioConfig make_scenario() {
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute = 4000;
  scenario.bundle_as_rank = 0;  // exercise bundle classification too
  return scenario;
}

std::vector<netflow::FlowRecord> make_records() {
  workload::FlowGenerator gen(make_scenario());
  constexpr util::Timestamp kStart = 18 * util::kSecondsPerHour;
  constexpr util::Timestamp kDuration = 45 * 60;  // enough for joins/drops
  std::vector<netflow::FlowRecord> records;
  gen.run(kStart, kStart + kDuration,
          [&records](const netflow::FlowRecord& r) { records.push_back(r); });
  return records;
}

/// Exact, locale-independent float rendering (round-trips bit patterns).
std::string hexfloat(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// Everything the fixture pins, as one deterministic text blob. Memory and
/// timing fields are deliberately excluded: those legitimately change with
/// the layout — that is the point of the refactor.
std::string serialize(const RunResult& r) {
  std::ostringstream out;
  out << "ipd-trie-layout-fixture v1\n";
  out << "== dumps " << r.dumps.size() << '\n';
  for (std::size_t i = 0; i < r.dumps.size(); ++i) {
    out << "-- snapshot " << i << '\n' << r.dumps[i];
  }
  out << "== cycles " << r.cycles.size() << '\n';
  for (const core::CycleStats& c : r.cycles) {
    out << c.now << ' ' << c.classifications << ' ' << c.splits << ' '
        << c.joins << ' ' << c.drops << ' ' << c.compactions << ' '
        << c.ranges_total << ' ' << c.ranges_classified << ' '
        << c.ranges_monitoring << ' ' << c.tracked_ips << '\n';
  }
  out << "== transitions " << r.transitions.size() << '\n';
  for (const core::RangeTransition& t : r.transitions) {
    out << t.ts << ' '
        << (t.kind == core::RangeTransition::Kind::Classify ? "classify"
                                                            : "demote")
        << ' ' << t.prefix.to_string() << ' ' << t.ingress.to_string() << ' '
        << hexfloat(t.share) << ' ' << hexfloat(t.samples) << '\n';
  }
  out << "== stats\n";
  out << r.stats.flows_ingested << ' ' << r.stats.cycles_run << ' '
      << r.stats.total_classifications << ' ' << r.stats.total_splits << ' '
      << r.stats.total_joins << ' ' << r.stats.total_drops << '\n';
  return out.str();
}

std::string fixture_path() {
  return std::string(IPD_FIXTURE_DIR) + "/trie_layout_small.txt";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Compare two serialized blobs with a readable first-divergence report.
void expect_same_blob(const std::string& expected, const std::string& actual,
                      const std::string& label) {
  SCOPED_TRACE(label);
  if (expected == actual) return;
  std::istringstream a(expected), b(actual);
  std::string la, lb;
  std::size_t line = 0;
  while (true) {
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    ++line;
    if (!ha && !hb) break;
    if (la != lb || ha != hb) {
      ADD_FAILURE() << "first divergence at line " << line << "\n  fixture: "
                    << (ha ? la : "<eof>") << "\n  actual:  "
                    << (hb ? lb : "<eof>");
      return;
    }
  }
  ADD_FAILURE() << "blobs differ but no line diff found (encoding?)";
}

class TrieLayoutDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<netflow::FlowRecord>(make_records());
    params_ = new core::IpdParams(workload::scaled_params(make_scenario()));
  }

  static void TearDownTestSuite() {
    delete records_;
    delete params_;
    records_ = nullptr;
    params_ = nullptr;
  }

  static std::vector<netflow::FlowRecord>* records_;
  static core::IpdParams* params_;
};

std::vector<netflow::FlowRecord>* TrieLayoutDifferential::records_ = nullptr;
core::IpdParams* TrieLayoutDifferential::params_ = nullptr;

/// The sequential engine must reproduce the committed seed-revision
/// fixture byte for byte (or regenerate it under IPD_REGEN_FIXTURES=1).
TEST_F(TrieLayoutDifferential, SequentialMatchesSeedFixture) {
  core::IpdEngine engine(*params_);
  const RunResult result = run_workload(engine, *records_, 4096);
  // The workload must exercise the machinery this suite pins.
  ASSERT_GT(result.stats.total_classifications, 0u);
  ASSERT_GT(result.stats.total_splits, 0u);
  ASSERT_GT(result.stats.total_joins, 0u);
  ASSERT_GT(result.stats.total_drops, 0u);
  const std::string blob = serialize(result);
  if (std::getenv("IPD_REGEN_FIXTURES") != nullptr) {
    std::ofstream out(fixture_path(), std::ios::binary);
    out << blob;
    ASSERT_TRUE(out.good()) << "failed to write " << fixture_path();
    GTEST_SKIP() << "fixture regenerated at " << fixture_path();
  }
  const std::string fixture = read_file(fixture_path());
  ASSERT_FALSE(fixture.empty())
      << "missing fixture " << fixture_path()
      << " — regenerate with IPD_REGEN_FIXTURES=1";
  expect_same_blob(fixture, blob, "sequential");
}

/// The sharded engine must reproduce the same fixture across every
/// {shards} x {threads} combination the issue pins.
TEST_F(TrieLayoutDifferential, ShardedMatchesSeedFixture) {
  const std::string fixture = read_file(fixture_path());
  ASSERT_FALSE(fixture.empty())
      << "missing fixture " << fixture_path()
      << " — regenerate with IPD_REGEN_FIXTURES=1";
  for (const int shard_bits : {0, 2, 4}) {
    for (const int threads : {1, 8}) {
      core::EngineConfig config;
      config.shard_bits = shard_bits;
      config.ingest_threads = threads;
      core::IpdEngine engine(*params_, config);
      const RunResult result = run_workload(engine, *records_, 4096);
      expect_same_blob(fixture, serialize(result),
                       "shards=" + std::to_string(1 << shard_bits) +
                           " threads=" + std::to_string(threads));
    }
  }
}

}  // namespace
}  // namespace ipd
