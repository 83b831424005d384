// Shared harness for the hostile scenario pack.
//
// Every scenario follows the same drill: replay a hostile flow stream
// through an uninterrupted donor run (with ground-truth validation and
// the full health-rule stack attached), kill it at a mid-run 5-minute bin
// boundary by cutting an engine snapshot, restore that snapshot into a
// fresh engine, and replay only the remaining records. The harness then
// asserts the warm-restart contract under hostility:
//
//   * stability — the restored run's Table-3 dumps are byte-identical to
//     the donor's post-cut dumps, the engine's exact trie memory (the
//     engine-owned share of CycleStats::memory_bytes) matches bin for bin,
//     and lifetime stats agree exactly;
//   * accuracy — per-bin ground-truth validation counts for the post-cut
//     bins are identical between the two runs (a restore never costs
//     accuracy), with the donor's full accuracy history available to the
//     scenario for its own floors;
//   * alerts — the donor's health engine saw the whole hostile window
//     (which rules fired is returned for scenario-specific assertions),
//     and the restored run's health engine is live and evaluating.
//
// Scenarios stay fast: IPD_BENCH_SCALE scales the flow volume but is
// clamped so no scenario outgrows its CI time budget (<60 s, sanitizers
// included).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "analysis/accuracy.hpp"
#include "analysis/health.hpp"
#include "analysis/runner.hpp"
#include "core/engine.hpp"
#include "core/output.hpp"
#include "core/snapshot.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "workload/generator.hpp"

namespace ipd::scenario_test {

/// Volume scale from IPD_BENCH_SCALE, clamped on both sides: the ceiling
/// keeps every scenario inside its CI time budget, the floor keeps the
/// flow volume high enough that classification statistics (and therefore
/// the scenarios' accuracy/alert assertions) stay meaningful.
inline double scenario_scale() {
  if (const char* env = std::getenv("IPD_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0) return std::min(std::max(v, 0.5), 4.0);
  }
  return 1.0;
}

struct KillRestoreOutcome {
  util::Timestamp cut = 0;                 // bin boundary of the kill
  core::EngineStats stats;                 // identical across both runs
  std::vector<analysis::ValidationRun::BinRow> donor_bins;  // full history
  std::set<std::string> donor_alert_rules;                  // rules raised
  analysis::HealthState donor_overall = analysis::HealthState::Ok;
  std::uint64_t restored_evaluations = 0;  // health liveness post-restore
  std::size_t snapshot_bytes = 0;
  std::uint64_t snapshot_lpm_rows = 0;
  std::uint64_t snapshot_lpm_v4 = 0;  // classified rows by family at the cut
  std::uint64_t snapshot_lpm_v6 = 0;
  std::size_t v4_leaves = 0;  // final restored partition census
  std::size_t v6_leaves = 0;
};

namespace detail {

inline std::uint64_t trie_memory(const core::IpdEngine& engine) {
  return engine.trie(net::Family::V4).memory_bytes() +
         engine.trie(net::Family::V6).memory_bytes();
}

inline std::string format_dump(const core::Snapshot& snap) {
  std::string dump;
  for (const auto& row : snap) {
    dump += core::format_row(row);
    dump += '\n';
  }
  return dump;
}

inline void expect_bins_equal(
    const std::vector<analysis::ValidationRun::BinRow>& donor_tail,
    const std::vector<analysis::ValidationRun::BinRow>& restored) {
  ASSERT_EQ(donor_tail.size(), restored.size());
  for (std::size_t i = 0; i < donor_tail.size(); ++i) {
    const auto& a = donor_tail[i];
    const auto& b = restored[i];
    EXPECT_EQ(a.bin_start, b.bin_start) << "bin " << i;
    EXPECT_EQ(a.all.total, b.all.total) << "bin " << i;
    EXPECT_EQ(a.all.correct, b.all.correct) << "bin " << i;
    EXPECT_EQ(a.all.miss_interface, b.all.miss_interface) << "bin " << i;
    EXPECT_EQ(a.all.miss_router, b.all.miss_router) << "bin " << i;
    EXPECT_EQ(a.all.miss_pop, b.all.miss_pop) << "bin " << i;
    EXPECT_EQ(a.all.unmapped, b.all.unmapped) << "bin " << i;
  }
}

}  // namespace detail

/// Run the kill-and-restore drill; gtest-asserts the warm-restart
/// contract and fills `outcome` with what scenarios assert on.
/// `capture_bin` is the 0-based 5-minute bin boundary where the donor is
/// killed. Out-parameter (not a return value) because ASSERT_* requires
/// a void-returning function; callers should check HasFatalFailure().
inline void run_kill_restore(workload::FlowGenerator& gen,
                             const std::vector<netflow::FlowRecord>& records,
                             const core::IpdParams& params,
                             std::size_t capture_bin,
                             KillRestoreOutcome& outcome) {

  // --- Donor: uninterrupted, fully instrumented, killed only on paper.
  std::string snapshot_bytes;
  core::SnapshotClock clock;
  std::size_t split = 0;
  std::vector<std::string> donor_dumps;
  std::vector<std::uint64_t> donor_memory;
  std::vector<analysis::ValidationRun::BinRow> donor_bins;
  {
    core::IpdEngine engine(params);
    obs::MetricsRegistry registry;
    core::CycleDeltaLog deltas(std::size_t{1} << 20);
    engine.observe({.metrics = &registry, .cycle_deltas = &deltas});
    obs::TimeSeriesStore store;
    analysis::HealthEngine health(store);
    health.install_default_rules(params);
    health.attach_cycle_deltas(deltas);
    health.on_alert = [&outcome](const analysis::Alert& alert) {
      if (alert.resolved_at == 0) outcome.donor_alert_rules.insert(alert.rule);
    };
    analysis::ValidationRun validation(gen.topology(), gen.universe());
    analysis::BinnedRunner runner(engine, &validation);
    std::size_t cursor = 0;
    std::size_t bins = 0;
    runner.on_snapshot = [&](util::Timestamp ts, const core::Snapshot& snap,
                             const core::LpmTable&) {
      donor_dumps.push_back(detail::format_dump(snap));
      donor_memory.push_back(detail::trie_memory(engine));
      if (bins++ == capture_bin) {
        snapshot_bytes = core::save_snapshot(engine, runner.snapshot_clock(ts));
        clock = runner.snapshot_clock(ts);
        split = cursor;
      }
    };
    runner.on_metrics = [&](util::Timestamp ts,
                            const obs::MetricsRegistry& reg) {
      store.ingest(reg, ts);
      health.evaluate(ts);
    };
    for (; cursor < records.size(); ++cursor) runner.offer(records[cursor]);
    runner.finish();
    validation.finish();
    donor_bins = validation.bins();
    outcome.stats = engine.stats();
    outcome.donor_overall = health.overall();
    outcome.cut = clock.saved_at;
    outcome.snapshot_bytes = snapshot_bytes.size();
  }
  ASSERT_FALSE(snapshot_bytes.empty()) << "capture bin never reached";
  ASSERT_GT(split, 0u);
  ASSERT_LT(split, records.size()) << "nothing left to replay after the kill";
  for (const core::LpmRow& row : core::read_snapshot_lpm(snapshot_bytes)) {
    ++outcome.snapshot_lpm_rows;
    if (row.prefix.family() == net::Family::V6) {
      ++outcome.snapshot_lpm_v6;
    } else {
      ++outcome.snapshot_lpm_v4;
    }
  }

  // --- Restored: fresh process on paper — fresh engine, fresh health
  // stack, warm state from the snapshot, replaying only the tail.
  {
    core::IpdEngine engine(params);
    const core::SnapshotClock resumed =
        core::restore_snapshot(engine, snapshot_bytes);
    ASSERT_EQ(resumed, clock);
    obs::MetricsRegistry registry;
    core::CycleDeltaLog deltas(std::size_t{1} << 20);
    engine.observe({.metrics = &registry, .cycle_deltas = &deltas});
    obs::TimeSeriesStore store;
    analysis::HealthEngine health(store);
    health.install_default_rules(params);
    health.attach_cycle_deltas(deltas);
    core::SnapshotTelemetry snapshots;
    snapshots.bind(registry);
    snapshots.record_restore(snapshot_bytes.size(), 0.0, resumed.saved_at);
    analysis::ValidationRun validation(gen.topology(), gen.universe());
    analysis::BinnedRunner runner(engine, &validation);
    runner.resume(resumed);
    std::vector<std::string> restored_dumps;
    std::vector<std::uint64_t> restored_memory;
    runner.on_snapshot = [&](util::Timestamp, const core::Snapshot& snap,
                             const core::LpmTable&) {
      restored_dumps.push_back(detail::format_dump(snap));
      restored_memory.push_back(detail::trie_memory(engine));
    };
    runner.on_metrics = [&](util::Timestamp ts,
                            const obs::MetricsRegistry& reg) {
      snapshots.update_age(ts);
      store.ingest(reg, ts);
      health.evaluate(ts);
    };
    for (std::size_t i = split; i < records.size(); ++i) {
      runner.offer(records[i]);
    }
    runner.finish();
    validation.finish();

    // Stability: byte-identical continuation.
    ASSERT_GT(donor_dumps.size(), capture_bin + 1);
    ASSERT_EQ(restored_dumps.size(), donor_dumps.size() - capture_bin - 1);
    for (std::size_t i = 0; i < restored_dumps.size(); ++i) {
      EXPECT_EQ(donor_dumps[capture_bin + 1 + i], restored_dumps[i])
          << "post-restore snapshot " << i << " differs";
      EXPECT_EQ(donor_memory[capture_bin + 1 + i], restored_memory[i])
          << "post-restore snapshot " << i << " memory_bytes";
    }
    const auto stats = engine.stats();
    EXPECT_EQ(stats.flows_ingested, outcome.stats.flows_ingested);
    EXPECT_EQ(stats.cycles_run, outcome.stats.cycles_run);
    EXPECT_EQ(stats.total_classifications,
              outcome.stats.total_classifications);
    EXPECT_EQ(stats.total_splits, outcome.stats.total_splits);
    EXPECT_EQ(stats.total_joins, outcome.stats.total_joins);
    EXPECT_EQ(stats.total_drops, outcome.stats.total_drops);

    // Accuracy: the restore costs nothing — post-cut validation bins are
    // identical to the donor's.
    std::vector<analysis::ValidationRun::BinRow> donor_tail;
    for (const auto& bin : donor_bins) {
      if (bin.bin_start >= outcome.cut) donor_tail.push_back(bin);
    }
    detail::expect_bins_equal(donor_tail, validation.bins());

    // Alerts: the restored health stack is alive and judging.
    outcome.restored_evaluations = health.evaluations();
    EXPECT_GT(outcome.restored_evaluations, 0u);

    for (const net::Family family : {net::Family::V4, net::Family::V6}) {
      std::size_t& leaves =
          family == net::Family::V4 ? outcome.v4_leaves : outcome.v6_leaves;
      engine.for_each_leaf(family,
                           [&leaves](const core::RangeNode&) { ++leaves; });
    }
  }
  outcome.donor_bins = std::move(donor_bins);
}

/// Donor accuracy over bins in [from, to): ALL-ASes correct share.
inline double window_accuracy(const KillRestoreOutcome& outcome,
                              util::Timestamp from, util::Timestamp to) {
  analysis::OutcomeCounts sum;
  for (const auto& bin : outcome.donor_bins) {
    if (bin.bin_start < from || bin.bin_start >= to) continue;
    sum.total += bin.all.total;
    sum.correct += bin.all.correct;
  }
  return sum.accuracy();
}

}  // namespace ipd::scenario_test
