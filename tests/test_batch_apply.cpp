// Batch-apply property test: apply_batch() must be byte-identical to
// record-at-a-time ingest on both engines, for any batch partition of the
// stream and (within one cycle bin) for any record permutation.
//
// The harness replays a workload with explicit cycle bins — every record
// between two stage-2 boundaries belongs to one bin — and compares the
// full observable surface: per-cycle snapshot text dumps, per-cycle
// structural stats, the RangeTransition sequence (float payloads
// included), and lifetime totals. The permutation case leans on stage 1
// being order-free within a bin: add_sample takes max() on timestamps and
// sums integer-valued weights, so any within-bin order must produce the
// same bytes. The weighted-cut case proves the work-weighted cut chooser
// changes only the parallel decomposition, never the output.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/output.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/generator.hpp"

namespace ipd {
namespace {

struct RunResult {
  std::vector<std::string> dumps;  // one text dump per cycle
  std::vector<core::CycleStats> cycles;
  std::vector<core::RangeTransition> transitions;
  core::EngineStats stats;
};

using ApplyFn = std::function<void(core::IpdEngine&,
                                   std::span<const netflow::FlowRecord>)>;

/// Replay `records` through `engine` with explicit cycle bins: all records
/// of a bin are handed to `apply` (which may batch, slice, or permute
/// them), then the cycle at the bin's boundary runs and the partition is
/// dumped. Cycle tie-break matches the runner: a boundary-crossing record
/// flushes and cycles first.
RunResult run_binned(core::IpdEngine& engine,
                     const std::vector<netflow::FlowRecord>& records,
                     const ApplyFn& apply) {
  core::CycleDeltaLog deltas(std::size_t{1} << 20);
  engine.observe({.cycle_deltas = &deltas});
  RunResult result;
  const util::Duration t = engine.params().t;
  util::Timestamp next_cycle = util::bucket_start(records.front().ts, t) + t;
  std::vector<netflow::FlowRecord> bin;
  const auto flush_and_cycle = [&](util::Timestamp up_to) {
    while (next_cycle <= up_to) {
      apply(engine, bin);
      bin.clear();
      result.cycles.push_back(engine.run_cycle(next_cycle));
      std::string dump;
      for (const auto& row : core::take_snapshot(engine, next_cycle)) {
        dump += core::format_row(row);
        dump += '\n';
      }
      result.dumps.push_back(std::move(dump));
      next_cycle += t;
    }
  };
  for (const auto& record : records) {
    if (record.ts >= next_cycle) flush_and_cycle(record.ts);
    bin.push_back(record);
  }
  flush_and_cycle(next_cycle);  // trailing bin
  result.transitions = deltas.drain();
  result.stats = engine.stats();
  EXPECT_EQ(deltas.dropped(), 0u);
  return result;
}

/// `compare_memory` = false skips CycleStats::memory_bytes: a permuted
/// bin inserts per-IP entries in another order, which legitimately moves
/// table growth points.
void expect_equal(const RunResult& reference, const RunResult& candidate,
                  const std::string& label, bool compare_memory = true) {
  SCOPED_TRACE(label);
  ASSERT_EQ(reference.dumps.size(), candidate.dumps.size());
  for (std::size_t i = 0; i < reference.dumps.size(); ++i) {
    EXPECT_EQ(reference.dumps[i], candidate.dumps[i])
        << "cycle " << i << " dump differs";
  }
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
    if (compare_memory) {
      EXPECT_EQ(a.memory_bytes, b.memory_bytes) << "cycle " << i;
    }
  }
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
  EXPECT_EQ(reference.stats.flows_ingested, candidate.stats.flows_ingested);
  EXPECT_EQ(reference.stats.cycles_run, candidate.stats.cycles_run);
  EXPECT_EQ(reference.stats.total_classifications,
            candidate.stats.total_classifications);
  EXPECT_EQ(reference.stats.total_splits, candidate.stats.total_splits);
  EXPECT_EQ(reference.stats.total_joins, candidate.stats.total_joins);
  EXPECT_EQ(reference.stats.total_drops, candidate.stats.total_drops);
}

const ApplyFn kRecordAtATime = [](core::IpdEngine& engine,
                                  std::span<const netflow::FlowRecord> bin) {
  for (const auto& record : bin) engine.ingest(record);
};

const ApplyFn kWholeBin = [](core::IpdEngine& engine,
                             std::span<const netflow::FlowRecord> bin) {
  netflow::FlowBatch batch;
  netflow::append_records(batch, bin);
  engine.apply_batch(batch);
};

/// Slice the bin into batches of pseudo-random size (1..97). The rng is
/// owned by the caller so every bin cuts differently.
ApplyFn random_slices(util::Rng& rng) {
  return [&rng](core::IpdEngine& engine,
                std::span<const netflow::FlowRecord> bin) {
    std::size_t i = 0;
    while (i < bin.size()) {
      const std::size_t n = std::min<std::size_t>(
          bin.size() - i, static_cast<std::size_t>(rng.range(1, 97)));
      netflow::FlowBatch batch;
      netflow::append_records(batch, bin.subspan(i, n));
      engine.apply_batch(batch);
      i += n;
    }
  };
}

/// Fisher–Yates-permute the whole bin, then apply as one batch.
ApplyFn permuted_bin(util::Rng& rng) {
  return [&rng](core::IpdEngine& engine,
                std::span<const netflow::FlowRecord> bin) {
    std::vector<netflow::FlowRecord> shuffled(bin.begin(), bin.end());
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.range(0, static_cast<std::int64_t>(i) - 1));
      std::swap(shuffled[i - 1], shuffled[j]);
    }
    netflow::FlowBatch batch;
    netflow::append_records(batch, shuffled);
    engine.apply_batch(batch);
  };
}

class BatchApply : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::ScenarioConfig scenario = workload::small_test();
    scenario.flows_per_minute = 4000;
    scenario.bundle_as_rank = 0;
    workload::FlowGenerator gen(scenario);
    constexpr util::Timestamp kStart = 18 * util::kSecondsPerHour;
    constexpr util::Timestamp kDuration = 40 * 60;
    records_ = new std::vector<netflow::FlowRecord>();
    gen.run(kStart, kStart + kDuration, [](const netflow::FlowRecord& r) {
      records_->push_back(r);
    });
    params_ = new core::IpdParams(workload::scaled_params(scenario));
    core::IpdEngine engine(*params_);
    reference_ = new RunResult(run_binned(engine, *records_, kRecordAtATime));
    ASSERT_FALSE(reference_->dumps.empty());
    // The equivalence must not hold vacuously.
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

std::vector<netflow::FlowRecord>* BatchApply::records_ = nullptr;
core::IpdParams* BatchApply::params_ = nullptr;
RunResult* BatchApply::reference_ = nullptr;

TEST_F(BatchApply, WholeBinMatchesRecordAtATime) {
  core::IpdEngine engine(*params_);
  expect_equal(*reference_, run_binned(engine, *records_, kWholeBin),
               "sequential whole-bin");
}

TEST_F(BatchApply, RandomBatchSizesMatchRecordAtATime) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    core::IpdEngine engine(*params_);
    expect_equal(*reference_,
                 run_binned(engine, *records_, random_slices(rng)),
                 "sequential slices seed=" + std::to_string(seed));
  }
}

TEST_F(BatchApply, WithinBinPermutationMatches) {
  for (const std::uint64_t seed : {11u, 12u}) {
    util::Rng rng(seed);
    core::IpdEngine engine(*params_);
    expect_equal(*reference_,
                 run_binned(engine, *records_, permuted_bin(rng)),
                 "sequential permuted seed=" + std::to_string(seed),
                 /*compare_memory=*/false);
  }
}

TEST_F(BatchApply, ShardedBatchesMatchSequential) {
  for (const int shard_bits : {0, 2}) {
    util::Rng rng(static_cast<std::uint64_t>(21 + shard_bits));
    core::EngineConfig config;
    config.shard_bits = shard_bits;
    config.ingest_threads = 4;
    core::IpdEngine engine(*params_, config);
    expect_equal(*reference_,
                 run_binned(engine, *records_, random_slices(rng)),
                 "sharded slices shards=" + std::to_string(1 << shard_bits));
  }
}

/// The stage-2 units as /shards lists them: every family's cut members.
std::string cut_members(const core::IpdEngine& engine) {
  const std::string json = engine.shards_json();
  std::string members;
  for (std::size_t at = json.find("\"cut_members\":["); at != std::string::npos;
       at = json.find("\"cut_members\":[", at + 1)) {
    members += json.substr(at, json.find(']', at) - at + 1);
  }
  return members;
}

TEST_F(BatchApply, WeightedCutMovesWithoutChangingOutput) {
  // With worker threads the cut follows the partition's work weight, so
  // it moves from cycle to cycle (and below the shard depth) as ranges
  // split, fill and classify; the output must not.
  core::EngineConfig config;
  config.shard_bits = 2;
  config.ingest_threads = 4;
  core::IpdEngine engine(*params_, config);
  std::vector<std::string> cuts;  // the cut each bin's cycle starts from
  std::size_t max_units = 0;
  const ApplyFn recording = [&](core::IpdEngine& e,
                                std::span<const netflow::FlowRecord> bin) {
    cuts.push_back(cut_members(e));
    max_units = std::max(max_units, e.parallel_units(net::Family::V4));
    kWholeBin(e, bin);
  };
  expect_equal(*reference_, run_binned(engine, *records_, recording),
               "weighted cut");
  std::sort(cuts.begin(), cuts.end());
  const auto distinct = std::unique(cuts.begin(), cuts.end()) - cuts.begin();
  EXPECT_GE(distinct, 3) << "the cut never moved";
  EXPECT_GT(max_units, std::size_t{1} << config.shard_bits)
      << "the cut never went below the shard depth";
}

}  // namespace
}  // namespace ipd
