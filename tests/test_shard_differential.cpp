// Determinism differential: the sharded parallel engine must be
// *byte-identical* to the sequential engine on the same workload.
//
// The same ScenarioSpec flow stream is replayed through the sequential
// IpdEngine and through the same engine at several shard counts and thread
// counts. For every 5-minute snapshot the Table-3 text dump must match
// byte for byte, every stage-2 cycle must report identical
// classify/split/join/drop/compact totals and partition census, the
// RangeTransition sequences must be exactly equal (same order, same
// floating-point shares), and the lifetime stats must agree. This is the
// strongest equivalence the repo can assert: any divergence in trie
// surgery, batch fan-out ordering, or cross-shard merge semantics shows up
// as a diff here.
#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "core/engine.hpp"
#include "core/output.hpp"
#include "obs/flow_trace.hpp"
#include "workload/generator.hpp"

namespace ipd {
namespace {

struct RunResult {
  std::vector<std::string> dumps;  // one formatted text block per snapshot
  std::vector<core::CycleStats> cycles;
  std::vector<core::RangeTransition> transitions;
  core::EngineStats stats;
  std::size_t ingest_batch = 0;  // runner batch size the run used
};

/// Replay `records` through `engine` with the standard runner cadence and
/// capture everything the equivalence claim covers. `after_offer`, when
/// set, runs after every offered record.
RunResult run_workload(core::IpdEngine& engine,
                       const std::vector<netflow::FlowRecord>& records,
                       std::size_t ingest_batch,
                       const std::function<void()>& after_offer = {}) {
  core::CycleDeltaLog deltas(std::size_t{1} << 20);
  engine.observe({.cycle_deltas = &deltas});
  analysis::RunnerConfig config;
  config.ingest_batch = ingest_batch;
  analysis::BinnedRunner runner(engine, nullptr, config);
  RunResult result;
  result.ingest_batch = ingest_batch;
  runner.on_snapshot = [&result](util::Timestamp, const core::Snapshot& snap,
                                 const core::LpmTable&) {
    std::string dump;
    for (const auto& row : snap) {
      dump += core::format_row(row);
      dump += '\n';
    }
    result.dumps.push_back(std::move(dump));
  };
  for (const auto& record : records) {
    runner.offer(record);
    if (after_offer) after_offer();
  }
  runner.finish();
  result.cycles = runner.cycles();
  result.transitions = deltas.drain();
  result.stats = engine.stats();
  EXPECT_EQ(deltas.dropped(), 0u);
  return result;
}

std::vector<netflow::FlowRecord> make_records() {
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute = 5000;
  scenario.bundle_as_rank = 0;
  workload::FlowGenerator gen(scenario);
  constexpr util::Timestamp kStart = 18 * util::kSecondsPerHour;
  constexpr util::Timestamp kDuration = 50 * 60;  // enough for joins/drops
  std::vector<netflow::FlowRecord> records;
  gen.run(kStart, kStart + kDuration,
          [&records](const netflow::FlowRecord& r) { records.push_back(r); });
  return records;
}

core::IpdParams make_params() {
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute = 5000;
  return workload::scaled_params(scenario);
}

void expect_equal(const RunResult& reference, const RunResult& candidate,
                  const std::string& label) {
  SCOPED_TRACE(label);
  // Byte-identical snapshot output.
  ASSERT_EQ(reference.dumps.size(), candidate.dumps.size());
  for (std::size_t i = 0; i < reference.dumps.size(); ++i) {
    EXPECT_EQ(reference.dumps[i], candidate.dumps[i])
        << "snapshot " << i << " differs";
  }
  // Identical per-cycle structural totals and partition census.
  ASSERT_EQ(reference.cycles.size(), candidate.cycles.size());
  for (std::size_t i = 0; i < reference.cycles.size(); ++i) {
    const core::CycleStats& a = reference.cycles[i];
    const core::CycleStats& b = candidate.cycles[i];
    EXPECT_EQ(a.now, b.now) << "cycle " << i;
    EXPECT_EQ(a.classifications, b.classifications) << "cycle " << i;
    EXPECT_EQ(a.splits, b.splits) << "cycle " << i;
    EXPECT_EQ(a.joins, b.joins) << "cycle " << i;
    EXPECT_EQ(a.drops, b.drops) << "cycle " << i;
    EXPECT_EQ(a.compactions, b.compactions) << "cycle " << i;
    EXPECT_EQ(a.ranges_total, b.ranges_total) << "cycle " << i;
    EXPECT_EQ(a.ranges_classified, b.ranges_classified) << "cycle " << i;
    EXPECT_EQ(a.ranges_monitoring, b.ranges_monitoring) << "cycle " << i;
    EXPECT_EQ(a.tracked_ips, b.tracked_ips) << "cycle " << i;
    // The runner adds its pending-batch buffer, sized by its batch size,
    // to memory_bytes; compare only runs that used the same one.
    if (reference.ingest_batch == candidate.ingest_batch) {
      EXPECT_EQ(a.memory_bytes, b.memory_bytes) << "cycle " << i;
    }
  }
  // Exactly-equal transition sequences, including float payloads: both
  // engines must execute identical per-node operation sequences, so even
  // the summation order behind `share` matches.
  ASSERT_EQ(reference.transitions.size(), candidate.transitions.size());
  for (std::size_t i = 0; i < reference.transitions.size(); ++i) {
    const core::RangeTransition& a = reference.transitions[i];
    const core::RangeTransition& b = candidate.transitions[i];
    EXPECT_EQ(a.ts, b.ts) << "transition " << i;
    EXPECT_EQ(a.kind, b.kind) << "transition " << i;
    EXPECT_TRUE(a.prefix == b.prefix) << "transition " << i;
    EXPECT_TRUE(a.ingress == b.ingress) << "transition " << i;
    EXPECT_EQ(a.share, b.share) << "transition " << i;
    EXPECT_EQ(a.samples, b.samples) << "transition " << i;
  }
  // Lifetime totals.
  EXPECT_EQ(reference.stats.flows_ingested, candidate.stats.flows_ingested);
  EXPECT_EQ(reference.stats.cycles_run, candidate.stats.cycles_run);
  EXPECT_EQ(reference.stats.total_classifications,
            candidate.stats.total_classifications);
  EXPECT_EQ(reference.stats.total_splits, candidate.stats.total_splits);
  EXPECT_EQ(reference.stats.total_joins, candidate.stats.total_joins);
  EXPECT_EQ(reference.stats.total_drops, candidate.stats.total_drops);
}

class ShardDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<netflow::FlowRecord>(make_records());
    params_ = new core::IpdParams(make_params());
    core::IpdEngine engine(*params_);
    reference_ = new RunResult(run_workload(engine, *records_, 4096));
    ASSERT_FALSE(reference_->dumps.empty());
    // The workload must actually exercise the machinery the test verifies.
    ASSERT_GT(reference_->stats.total_classifications, 0u);
    ASSERT_GT(reference_->stats.total_splits, 0u);
  }

  static void TearDownTestSuite() {
    delete records_;
    delete params_;
    delete reference_;
    records_ = nullptr;
    params_ = nullptr;
    reference_ = nullptr;
  }

  static std::vector<netflow::FlowRecord>* records_;
  static core::IpdParams* params_;
  static RunResult* reference_;
};

std::vector<netflow::FlowRecord>* ShardDifferential::records_ = nullptr;
core::IpdParams* ShardDifferential::params_ = nullptr;
RunResult* ShardDifferential::reference_ = nullptr;

TEST_F(ShardDifferential, ShardedMatchesSequential) {
  for (const int shard_bits : {0, 2, 4}) {
    for (const int threads : {1, 8}) {
      core::EngineConfig config;
      config.shard_bits = shard_bits;
      config.ingest_threads = threads;
      core::IpdEngine engine(*params_, config);
      const RunResult result = run_workload(engine, *records_, 4096);
      expect_equal(*reference_, result,
                   "shards=" + std::to_string(1 << shard_bits) +
                       " threads=" + std::to_string(threads));
    }
  }
}

/// The per-record ingest path (no batching) must agree too.
TEST_F(ShardDifferential, UnbatchedIngestMatchesSequential) {
  core::EngineConfig config;
  config.shard_bits = 4;
  config.ingest_threads = 4;
  core::IpdEngine engine(*params_, config);
  const RunResult result = run_workload(engine, *records_, 1);
  expect_equal(*reference_, result, "shards=16 threads=4 batch=1");
}

/// The sequential engine itself must be invariant under batch size (the
/// runner's boundary-flush logic must not shift any record across a cycle).
TEST_F(ShardDifferential, SequentialInvariantUnderBatchSize) {
  core::IpdEngine engine(*params_);
  const RunResult result = run_workload(engine, *records_, 257);
  expect_equal(*reference_, result, "sequential batch=257");
}

/// The equivalence above must not hold vacuously: on this workload the
/// sharded engine has to actually decompose into multiple parallel units
/// (independent cut subtrees), or the whole differential only ever tested
/// the single-unit fallback path.
TEST_F(ShardDifferential, FamilyActuallyParallelizes) {
  core::EngineConfig config;
  config.shard_bits = 2;
  config.ingest_threads = 2;
  core::IpdEngine engine(*params_, config);
  std::size_t max_units = 0;
  core::CycleDeltaLog deltas(std::size_t{1} << 20);
  engine.observe({.cycle_deltas = &deltas});
  analysis::BinnedRunner runner(engine, nullptr);
  for (const auto& record : *records_) {
    runner.offer(record);
    // Sampling after every offer is cheap: the cut only changes on cycles.
    max_units = std::max(max_units, engine.parallel_units(net::Family::V4));
  }
  runner.finish();
  // V4 carries the bulk of the scenario's traffic; once its partition
  // refines below depth 2 the cut must hold more than one unit.
  EXPECT_GT(max_units, 1u);
  EXPECT_EQ(engine.shard_count(), 4u);
  EXPECT_LT(engine.shard_of(net::IpAddress::v4(0x00000001)), 4u);
  EXPECT_EQ(engine.shard_of(net::IpAddress::v4(0xC0000000)), 3u);
}

/// All of IPv6 global unicast lies under 2000::/3, so at shard_bits 4 one
/// shard, 2000::/4, holds every IPv6 range. The work-weighted cut must
/// still split that family into several stage-2 units, and the output
/// must stay byte-identical to the sequential engine's.
TEST(ShardDifferentialV6, OneShardFamilyStillParallelizes) {
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute = 5000;
  scenario.bundle_as_rank = 0;
  scenario.v6_share = 0.5;
  workload::FlowGenerator gen(scenario);
  constexpr util::Timestamp kStart = 18 * util::kSecondsPerHour;
  std::vector<netflow::FlowRecord> records;
  gen.run(kStart, kStart + 40 * 60,
          [&records](const netflow::FlowRecord& r) { records.push_back(r); });
  const core::IpdParams params = workload::scaled_params(scenario);

  core::IpdEngine sequential(params);
  const RunResult reference = run_workload(sequential, records, 4096);
  ASSERT_GT(reference.stats.total_splits, 0u);

  core::EngineConfig config;
  config.shard_bits = 4;
  config.ingest_threads = 3;
  core::IpdEngine engine(params, config);
  // The premise: every IPv6 source routes to one shard.
  std::set<std::size_t> v6_shards;
  for (const auto& record : records) {
    if (!record.src_ip.is_v4()) v6_shards.insert(engine.shard_of(record.src_ip));
  }
  ASSERT_EQ(v6_shards.size(), 1u);
  std::size_t max_units = 0;
  const RunResult result = run_workload(engine, records, 4096, [&] {
    max_units = std::max(max_units, engine.parallel_units(net::Family::V6));
  });
  expect_equal(reference, result, "v6 in one shard, shards=16 threads=3");
  // The shard cut itself holds at most five IPv6 members here (8000::/1,
  // 4000::/2 and ::/3 beside the path to 2000::/4, then 2000::/4 and
  // 3000::/4), four of them empty; more units means the busy member was
  // expanded.
  EXPECT_GT(max_units, 5u);
}

/// Replay with a flow tracer attached and return the set of sampled flow
/// ids. `max_flows` is sized far above the expected sample count so the
/// FIFO ring never evicts and the set is complete.
std::set<std::uint64_t> sampled_ids(
    core::IpdEngine& engine, const std::vector<netflow::FlowRecord>& records) {
  obs::FlowTracer tracer(obs::FlowTracerConfig{
      .sample_period = 16, .max_flows = std::size_t{1} << 20,
      .max_hops_per_flow = 8});
  engine.observe({.flow_trace = &tracer});
  analysis::BinnedRunner runner(engine, nullptr);
  for (const auto& record : records) runner.offer(record);
  runner.finish();
  std::set<std::uint64_t> ids;
  for (const auto& journey : tracer.journeys()) ids.insert(journey.id);
  EXPECT_EQ(tracer.journeys_evicted(), 0u);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(tracer.flows_sampled()));
  return ids;
}

/// Flow sampling is a pure function of the input: the hash is recomputed
/// from (ts, masked src, link) at every stage, so the *set* of sampled
/// flows must be identical across shard counts, thread counts, and the
/// sequential engine — otherwise a journey seen on the 16-shard deployment
/// could be unreproducible on a single-shard repro run.
TEST_F(ShardDifferential, SamplingDeterminism) {
  core::IpdEngine sequential(*params_);
  const std::set<std::uint64_t> reference_ids =
      sampled_ids(sequential, *records_);
  ASSERT_GT(reference_ids.size(), 100u);  // 1/16 of a 250k-record workload

  for (const int shard_bits : {0, 2, 4}) {
    for (const int threads : {1, 8}) {
      core::EngineConfig config;
      config.shard_bits = shard_bits;
      config.ingest_threads = threads;
      core::IpdEngine engine(*params_, config);
      const std::set<std::uint64_t> ids = sampled_ids(engine, *records_);
      EXPECT_EQ(ids, reference_ids)
          << "sampled set diverged at shards=" << (1 << shard_bits)
          << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace ipd
