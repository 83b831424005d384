// Warm-restart determinism: a run that is killed at a bin boundary,
// snapshotted, and restored into a *fresh* engine must continue
// byte-identically to the run that never died.
//
// The donor (sequential) run replays the standard differential workload
// and, at a mid-run 5-minute bin boundary, captures save_snapshot() bytes
// plus the runner's continuation clock and the exact record split index.
// Restored engines — sequential, and sharded at {1,4,16} shards x {1,8}
// threads — consume the snapshot and replay only the remaining records.
// Everything after the cut must match the uninterrupted reference exactly:
// byte-identical Table-3 dumps per bin, identical per-cycle structural
// totals, exactly-equal RangeTransition streams (same order, same
// floating-point shares), and identical lifetime stats. A sharded 16-shard
// donor restored into a sequential engine closes the loop in the other
// direction. The restore itself must reproduce the donor's exact arena
// heap (memory_bytes parity), and a scaled save+restore must finish inside
// the 2-second budget (the ctest perf gate from the issue).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "core/engine.hpp"
#include "core/output.hpp"
#include "core/snapshot.hpp"
#include "workload/generator.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define IPD_SANITIZED 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define IPD_SANITIZED 1
#endif
#endif

namespace ipd {
namespace {

struct RunResult {
  std::vector<std::string> dumps;  // one formatted text block per snapshot
  std::vector<core::CycleStats> cycles;
  std::vector<core::RangeTransition> transitions;
  core::EngineStats stats;
};

/// Everything captured at the kill point: the snapshot bytes, the runner's
/// continuation clock, and where in the record stream the cut fell.
struct Capture {
  std::string bytes;
  core::SnapshotClock clock;
  std::size_t split = 0;           // first record the restored run replays
  std::size_t snapshot_index = 0;  // donor dump index at the capture bin
  std::uint64_t trie_bytes = 0;    // donor's exact trie heap at the cut
};

std::string format_dump(const core::Snapshot& snap) {
  std::string dump;
  for (const auto& row : snap) {
    dump += core::format_row(row);
    dump += '\n';
  }
  return dump;
}

std::uint64_t engine_trie_bytes(core::IpdEngine& engine) {
  return engine.trie(net::Family::V4).memory_bytes() +
         engine.trie(net::Family::V6).memory_bytes();
}

/// Replay `records` through `engine`; when `capture` is non-null, cut a
/// snapshot at the `capture_at`-th bin boundary (0-based). The callback
/// runs with the engine quiescent at the boundary and the pending batch
/// empty, so records [0, cursor) are fully ingested and `cursor` is the
/// exact replay resume index.
RunResult run_workload(core::IpdEngine& engine,
                       const std::vector<netflow::FlowRecord>& records,
                       std::size_t capture_at = 0, Capture* capture = nullptr) {
  core::CycleDeltaLog deltas(std::size_t{1} << 20);
  engine.observe({.cycle_deltas = &deltas});
  analysis::BinnedRunner runner(engine, nullptr);
  RunResult result;
  std::size_t cursor = 0;
  runner.on_snapshot = [&](util::Timestamp ts, const core::Snapshot& snap,
                           const core::LpmTable&) {
    result.dumps.push_back(format_dump(snap));
    if (capture != nullptr && result.dumps.size() == capture_at + 1) {
      capture->bytes = core::save_snapshot(engine, runner.snapshot_clock(ts));
      capture->clock = runner.snapshot_clock(ts);
      capture->split = cursor;
      capture->snapshot_index = capture_at;
      if (auto* seq = dynamic_cast<core::IpdEngine*>(&engine)) {
        capture->trie_bytes = engine_trie_bytes(*seq);
      }
      // A donor that dies here hands everything logged so far to its
      // consumer, so from the cut on its delta log (counted in
      // memory_bytes) holds what a restored engine's log holds.
      result.transitions = deltas.drain();
    }
  };
  for (; cursor < records.size(); ++cursor) runner.offer(records[cursor]);
  runner.finish();
  result.cycles = runner.cycles();
  for (core::RangeTransition& t : deltas.drain()) {
    result.transitions.push_back(std::move(t));
  }
  result.stats = engine.stats();
  EXPECT_EQ(deltas.dropped(), 0u);
  return result;
}

/// Restore `capture` into `engine` and replay the remaining records.
RunResult run_restored(core::IpdEngine& engine, const Capture& capture,
                       const std::vector<netflow::FlowRecord>& records) {
  const core::SnapshotClock clock =
      core::restore_snapshot(engine, capture.bytes);
  EXPECT_EQ(clock, capture.clock);
  core::CycleDeltaLog deltas(std::size_t{1} << 20);
  engine.observe({.cycle_deltas = &deltas});
  analysis::BinnedRunner runner(engine, nullptr);
  runner.resume(clock);
  RunResult result;
  runner.on_snapshot = [&result](util::Timestamp, const core::Snapshot& snap,
                                 const core::LpmTable&) {
    result.dumps.push_back(format_dump(snap));
  };
  for (std::size_t i = capture.split; i < records.size(); ++i) {
    runner.offer(records[i]);
  }
  runner.finish();
  result.cycles = runner.cycles();
  result.transitions = deltas.drain();
  result.stats = engine.stats();
  EXPECT_EQ(deltas.dropped(), 0u);
  return result;
}

/// The restored run must equal the uninterrupted reference from the cut
/// onward: its dumps/cycles/transitions are the reference's tail past the
/// capture bin, and the lifetime stats (carried through the snapshot) are
/// the full-run totals.
void expect_equal_tail(const RunResult& reference, const Capture& capture,
                       const RunResult& restored, const std::string& label) {
  SCOPED_TRACE(label);
  const util::Timestamp cut = capture.clock.saved_at;

  ASSERT_GT(reference.dumps.size(), capture.snapshot_index + 1);
  ASSERT_EQ(restored.dumps.size(),
            reference.dumps.size() - capture.snapshot_index - 1);
  for (std::size_t i = 0; i < restored.dumps.size(); ++i) {
    EXPECT_EQ(reference.dumps[capture.snapshot_index + 1 + i],
              restored.dumps[i])
        << "post-restore snapshot " << i << " differs";
  }

  std::vector<core::CycleStats> tail_cycles;
  for (const auto& c : reference.cycles) {
    if (c.now > cut) tail_cycles.push_back(c);
  }
  ASSERT_EQ(tail_cycles.size(), restored.cycles.size());
  for (std::size_t i = 0; i < tail_cycles.size(); ++i) {
    const core::CycleStats& a = tail_cycles[i];
    const core::CycleStats& b = restored.cycles[i];
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
    EXPECT_EQ(a.memory_bytes, b.memory_bytes) << "cycle " << i;
  }

  std::vector<core::RangeTransition> tail_transitions;
  for (const auto& t : reference.transitions) {
    if (t.ts > cut) tail_transitions.push_back(t);
  }
  ASSERT_EQ(tail_transitions.size(), restored.transitions.size());
  for (std::size_t i = 0; i < tail_transitions.size(); ++i) {
    const core::RangeTransition& a = tail_transitions[i];
    const core::RangeTransition& b = restored.transitions[i];
    EXPECT_EQ(a.ts, b.ts) << "transition " << i;
    EXPECT_EQ(a.kind, b.kind) << "transition " << i;
    EXPECT_TRUE(a.prefix == b.prefix) << "transition " << i;
    EXPECT_TRUE(a.ingress == b.ingress) << "transition " << i;
    EXPECT_EQ(a.share, b.share) << "transition " << i;  // bit-exact float
    EXPECT_EQ(a.samples, b.samples) << "transition " << i;
  }

  EXPECT_EQ(reference.stats.flows_ingested, restored.stats.flows_ingested);
  EXPECT_EQ(reference.stats.cycles_run, restored.stats.cycles_run);
  EXPECT_EQ(reference.stats.total_classifications,
            restored.stats.total_classifications);
  EXPECT_EQ(reference.stats.total_splits, restored.stats.total_splits);
  EXPECT_EQ(reference.stats.total_joins, restored.stats.total_joins);
  EXPECT_EQ(reference.stats.total_drops, restored.stats.total_drops);
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

// Capture at the 5th bin boundary (0-based index 4): far enough in for
// splits/classifications/joins to exist, far enough from the end for the
// tail to exercise several more bins including drops.
constexpr std::size_t kCaptureBin = 4;

class SnapshotDifferential : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    records_ = new std::vector<netflow::FlowRecord>(make_records());
    params_ = new core::IpdParams(make_params());
    capture_ = new Capture;
    core::IpdEngine engine(*params_);
    reference_ =
        new RunResult(run_workload(engine, *records_, kCaptureBin, capture_));
    ASSERT_FALSE(capture_->bytes.empty());
    ASSERT_GT(capture_->split, 0u);
    ASSERT_LT(capture_->split, records_->size());
    // The cut must land in the middle of real machinery: structure before
    // it, structure after it.
    ASSERT_GT(reference_->stats.total_splits, 0u);
    ASSERT_GT(reference_->stats.total_classifications, 0u);
    const auto info = core::read_snapshot_info(capture_->bytes);
    ASSERT_GT(info.stats.flows_ingested, 0u);
    ASSERT_LT(info.stats.flows_ingested, reference_->stats.flows_ingested);
  }

  static void TearDownTestSuite() {
    delete records_;
    delete params_;
    delete reference_;
    delete capture_;
    records_ = nullptr;
    params_ = nullptr;
    reference_ = nullptr;
    capture_ = nullptr;
  }

  static std::vector<netflow::FlowRecord>* records_;
  static core::IpdParams* params_;
  static RunResult* reference_;
  static Capture* capture_;
};

std::vector<netflow::FlowRecord>* SnapshotDifferential::records_ = nullptr;
core::IpdParams* SnapshotDifferential::params_ = nullptr;
RunResult* SnapshotDifferential::reference_ = nullptr;
Capture* SnapshotDifferential::capture_ = nullptr;

/// Sequential -> sequential: the purest form of the claim, plus exact
/// arena-heap parity immediately after restore (same node indices, same
/// free chain, same high-water mark => same memory_bytes).
TEST_F(SnapshotDifferential, SequentialRestoreContinuesByteIdentically) {
  core::IpdEngine engine(*params_);
  const core::SnapshotClock clock =
      core::restore_snapshot(engine, capture_->bytes);
  EXPECT_EQ(clock, capture_->clock);
  EXPECT_EQ(engine_trie_bytes(engine), capture_->trie_bytes);

  // Run the continuation in a second fresh engine (the one above already
  // consumed the restore under test).
  core::IpdEngine continuation(*params_);
  const RunResult result = run_restored(continuation, *capture_, *records_);
  expect_equal_tail(*reference_, *capture_, result, "sequential->sequential");
}

/// Sequential donor -> sharded restore at every shard/thread combination:
/// restore rebuilds the cut over the restored tries, so the snapshot is
/// shape-agnostic (re-shard 1 -> N).
TEST_F(SnapshotDifferential, ShardedRestoreMatrixContinuesByteIdentically) {
  for (const int shard_bits : {0, 2, 4}) {
    for (const int threads : {1, 8}) {
      core::EngineConfig config;
      config.shard_bits = shard_bits;
      config.ingest_threads = threads;
      core::IpdEngine engine(*params_, config);
      const RunResult result = run_restored(engine, *capture_, *records_);
      expect_equal_tail(*reference_, *capture_, result,
                        "sequential->shards=" + std::to_string(1 << shard_bits) +
                            " threads=" + std::to_string(threads));
    }
  }
}

/// Sharded 16-shard/8-thread donor -> sequential restore (re-shard N -> 1):
/// the donor's own capture must line up with the sequential reference (the
/// shard differential already proves the runs are byte-identical, so its
/// snapshot must be too), and the sequential continuation must match.
TEST_F(SnapshotDifferential, ShardedDonorRestoresIntoSequential) {
  core::EngineConfig config;
  config.shard_bits = 4;
  config.ingest_threads = 8;
  core::IpdEngine donor(*params_, config);
  Capture capture;
  const RunResult donor_result =
      run_workload(donor, *records_, kCaptureBin, &capture);
  ASSERT_FALSE(capture.bytes.empty());
  EXPECT_EQ(capture.split, capture_->split);
  EXPECT_EQ(capture.clock, capture_->clock);
  const auto info = core::read_snapshot_info(capture.bytes);
  EXPECT_TRUE(info.sharded);
  EXPECT_EQ(info.shard_bits, 4);

  core::IpdEngine engine(*params_);
  const RunResult result = run_restored(engine, capture, *records_);
  expect_equal_tail(donor_result, capture, result, "shards=16->sequential");
  // And against the sequential reference: full transitivity.
  expect_equal_tail(*reference_, capture, result,
                    "shards=16->sequential vs reference");
}

/// A snapshot is a pure function of engine state: saving the restored
/// engine at the same instant reproduces the donor's bytes exactly.
TEST_F(SnapshotDifferential, SaveAfterRestoreIsIdempotent) {
  core::IpdEngine engine(*params_);
  core::restore_snapshot(engine, capture_->bytes);
  const std::string again = core::save_snapshot(engine, capture_->clock);
  EXPECT_EQ(again, capture_->bytes);
}

/// Perf gate: save + restore of a scaled engine must complete within the
/// issue's 2-second budget. IPD_BENCH_SCALE scales the workload (default
/// 2, the acceptance point); sanitizer builds get a relaxed wall-clock
/// budget since they slow everything by an order of magnitude.
TEST(SnapshotPerf, ScaledSaveRestoreUnderBudget) {
  double scale = 2.0;
  if (const char* env = std::getenv("IPD_BENCH_SCALE")) {
    const double parsed = std::atof(env);
    if (parsed > 0) scale = parsed;
  }
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute =
      static_cast<std::uint64_t>(20000.0 * scale);
  const core::IpdParams params = workload::scaled_params(scenario);
  workload::FlowGenerator gen(scenario);
  core::IpdEngine engine(params);
  analysis::BinnedRunner runner(engine, nullptr);
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

  const auto t0 = std::chrono::steady_clock::now();
  const std::string bytes = core::save_snapshot(engine, clock);
  core::IpdEngine restored(params);
  const core::SnapshotClock got = core::restore_snapshot(restored, bytes);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  EXPECT_EQ(got, clock);
  EXPECT_EQ(restored.trie(net::Family::V4).memory_bytes() +
                restored.trie(net::Family::V6).memory_bytes(),
            engine.trie(net::Family::V4).memory_bytes() +
                engine.trie(net::Family::V6).memory_bytes());
#ifdef IPD_SANITIZED
  const double budget = 10.0;  // sanitizers dilate wall time ~5-20x
#else
  const double budget = 2.0;
#endif
  EXPECT_LT(seconds, budget)
      << "save+restore of " << bytes.size() << " bytes took " << seconds
      << " s (scale " << scale << ")";
  RecordProperty("snapshot_bytes", static_cast<int>(bytes.size()));
}

}  // namespace
}  // namespace ipd
