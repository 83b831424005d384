#include "analysis/runner.hpp"

#include "core/engine.hpp"
#include "obs/flow_trace.hpp"
#include "obs/scope.hpp"

namespace ipd::analysis {

BinnedRunner::BinnedRunner(core::EngineBase& engine, ValidationRun* validation,
                           RunnerConfig config)
    : engine_(engine), validation_(validation), config_(config) {
  pending_.reserve(config_.ingest_batch);
  // The replay loop is this pipeline's "datagram decode": there is no
  // collector in front to tag sampled flows, so have the engine
  // synthesize the Decode hop as records enter stage 1 — journeys still
  // begin with a decode hop, at no extra hash on the unsampled hot path.
  engine.set_flow_trace_synth_decode(true);
}

std::uint64_t BinnedRunner::bin_buffer_bytes() const noexcept {
  return bin_buffer_.capacity() * sizeof(netflow::FlowRecord) +
         pending_.memory_bytes();
}

void BinnedRunner::flush_pending() {
  if (pending_.empty()) return;
  // One span per hand-off (up to ingest_batch records), never one per flow.
  const obs::Layer layer("stage1.batch", 1, nullptr, engine_.tracer(),
                         nullptr);
  obs::Scope scope(layer);
  engine_.apply_batch(pending_);
  scope.close({{"flows", static_cast<double>(pending_.size())}});
  pending_.clear();
}

void BinnedRunner::run_one_cycle(util::Timestamp ts) {
  flush_pending();
  auto stats = engine_.run_cycle(ts);
  // The validation bin buffer is part of the deployment loop's working set;
  // count it so Fig.-20-style memory numbers are honest.
  stats.memory_bytes += bin_buffer_bytes();
  if (config_.keep_cycle_stats) cycles_.push_back(stats);
}

void BinnedRunner::advance_to(util::Timestamp ts) {
  const util::Duration t = engine_.params().t;
  if (!started_) {
    next_cycle_ = util::bucket_start(ts, t) + t;
    next_snapshot_ = util::bucket_start(ts, config_.snapshot_len) +
                     config_.snapshot_len;
    started_ = true;
    return;
  }
  while (next_cycle_ <= ts || next_snapshot_ <= ts) {
    if (next_cycle_ <= next_snapshot_) {
      run_one_cycle(next_cycle_);
      next_cycle_ += t;
    } else {
      take_snapshot(next_snapshot_);
      next_snapshot_ += config_.snapshot_len;
    }
  }
}

void BinnedRunner::take_snapshot(util::Timestamp ts) {
  // The span covers the snapshot and the LPM build only — not validation
  // or the callbacks below.
  const obs::Layer layer("snapshot", 1, nullptr, engine_.tracer(), nullptr);
  obs::Scope scope(layer);
  const core::Snapshot snapshot = core::take_snapshot(engine_, ts);
  const core::LpmTable table = core::LpmTable::from_snapshot(snapshot);
  scope.close({{"ranges", static_cast<double>(snapshot.size())}});
  if (validation_) {
    for (const auto& record : bin_buffer_) validation_->observe(table, record);
  }
  bin_buffer_.clear();
  if (on_snapshot) on_snapshot(ts, snapshot, table);
  ++snapshots_;
  if (obs::MetricsRegistry* registry = engine_.metrics_registry()) {
    // Data-time freshness at the publish boundary: how far the newest
    // offered record has run ahead of the table just published. Wall-clock
    // lag is meaningless in replay (timestamps are simulated), so the
    // gauge is defined in data time on both the collector and this path.
    registry
        ->gauge("ipd_freshness_seconds",
                "Pipeline freshness in data time: newest decoded flow "
                "timestamp minus the data time of the last published LPM "
                "table")
        .set(static_cast<double>(newest_ts_ > ts ? newest_ts_ - ts : 0));
    registry
        ->gauge("ipd_runner_bin_buffer_bytes",
                "Heap held by the runner's per-bin validation buffer")
        .set(static_cast<double>(bin_buffer_bytes()));
    registry
        ->counter("ipd_runner_snapshots_total",
                  "Snapshots (5-minute output bins) taken")
        .inc();
    // Per-bin validation accuracy (last *closed* bin — the current bin
    // stays open until its successor's first record arrives). Feeds the
    // health engine's accuracy-regression rule via the TSDB.
    if (validation_ != nullptr && !validation_->bins().empty()) {
      const auto& bin = validation_->bins().back();
      registry
          ->gauge("ipd_validation_accuracy",
                  "Share of validated flows mapped to the correct ingress "
                  "(last closed bin, ALL ASes)")
          .set(bin.all.accuracy());
      registry
          ->gauge("ipd_validation_miss_rate",
                  "Share of validated flows mapped incorrectly or unmapped "
                  "(last closed bin, ALL ASes)")
          .set(bin.all.total ? 1.0 - bin.all.accuracy() : 0.0);
    }
    if (on_metrics) on_metrics(ts, *registry);
  }
}

void BinnedRunner::offer(const netflow::FlowRecord& record) {
  // Boundary crossings flush the pending batch first (every buffered
  // record predates the boundary), so cycles fire over exactly the same
  // ingest state as per-record operation — the original tie-break (cycle
  // before the boundary-crossing record) is preserved.
  if (!started_ || record.ts >= next_cycle_ || record.ts >= next_snapshot_) {
    flush_pending();
    advance_to(record.ts);
  }
  if (record.ts > newest_ts_) newest_ts_ = record.ts;
  resumed_idle_ = false;
  pending_.push_back(record);
  if (pending_.size() >= config_.ingest_batch) flush_pending();
  if (validation_) bin_buffer_.push_back(record);
}

void BinnedRunner::finish() {
  if (!started_) return;
  // A resumed runner that ingested nothing must leave the engine exactly
  // as the snapshot left it: the donor already ran the trailing cycle
  // before that snapshot was cut, so running another here would
  // synthesize a cycle the donor never saw (restore-at-end-of-trace).
  if (resumed_idle_) return;
  flush_pending();
  // Run the trailing cycle and snapshot so the last bin is validated.
  run_one_cycle(next_cycle_);
  // Keep the "next un-run cycle" invariant so a snapshot_clock() taken in
  // the final on_snapshot still describes a valid continuation point.
  next_cycle_ += engine_.params().t;
  take_snapshot(next_snapshot_);
  if (validation_) validation_->finish();
}

}  // namespace ipd::analysis
