// Binned engine runner: the deployment loop in reusable form.
//
// Streams flow records into a core::IpdEngine (any shard count), fires
// stage-2 cycles every `t` seconds of simulated time, and every
// `snapshot_len` (default 5 min, the deployment's output cadence) takes a
// snapshot, rebuilds the LPM table and validates the just-finished bin's
// flows against it — exactly the validation methodology of §5.1.
//
// Ingest is micro-batched: records accumulate in a pending SoA FlowBatch
// and are handed to the engine via apply_batch() in arrival order, flushed
// whenever a record would cross a cycle/snapshot boundary (so every cycle
// still observes exactly the records that precede it — byte-identical to
// unbatched operation) or the buffer fills. This is what lets the engine
// interleave its trie descents and amortize its per-shard locking to once
// per shard per batch.
//
// When the engine's bundle has a metrics registry, the runner fires the
// `on_metrics` hook once per bin (right after `on_snapshot`), so callers
// can flush a Prometheus/JSON snapshot at the deployment's output cadence.
// With a tracer it records `stage1.batch` spans per apply_batch and
// `snapshot` spans over the snapshot plus LPM build (not validation or the
// callbacks). Callers tracing flows through a runner set synth_decode.
#pragma once

#include <functional>
#include <vector>

#include "analysis/accuracy.hpp"
#include "core/engine_base.hpp"
#include "core/lpm_table.hpp"
#include "core/output.hpp"
#include "core/snapshot.hpp"
#include "obs/metrics.hpp"

namespace ipd::analysis {

struct RunnerConfig {
  util::Duration snapshot_len = 300;  // 5-minute output bins
  bool keep_cycle_stats = true;
  // Records buffered before an apply_batch() handoff (boundaries always
  // flush first, so batching never reorders ingest across a cycle).
  std::size_t ingest_batch = 4096;
};

class BinnedRunner {
 public:
  /// `validation` may be null (no accuracy evaluation).
  BinnedRunner(core::IpdEngine& engine, ValidationRun* validation,
               RunnerConfig config = {});

  /// Offer one record (must arrive in non-decreasing bin order).
  void offer(const netflow::FlowRecord& record);

  /// Flush: run final cycles, snapshot, and validate the last bin.
  void finish();

  /// Called after each snapshot with (snapshot time, snapshot, table).
  std::function<void(util::Timestamp, const core::Snapshot&,
                     const core::LpmTable&)>
      on_snapshot;

  /// Called after each snapshot (every `snapshot_len` bin) with the
  /// engine's metrics registry — only when one is attached. The runner's
  /// own gauges (bin buffer depth, snapshot count) are updated first.
  std::function<void(util::Timestamp, const obs::MetricsRegistry&)> on_metrics;

  const std::vector<core::CycleStats>& cycles() const noexcept {
    return cycles_;
  }

  std::uint64_t snapshots_taken() const noexcept { return snapshots_; }

  /// The engine-snapshot clock as of the bin boundary `ts`. Only
  /// meaningful from inside a mid-run on_snapshot callback: at that point
  /// the cycle at `ts` has run, the validation bin buffer is empty, and
  /// the pending batch holds nothing older than `ts` — so an engine
  /// snapshot cut here plus this clock is a complete warm-restart point.
  core::SnapshotClock snapshot_clock(util::Timestamp ts) const noexcept {
    return {ts, next_cycle_, ts + config_.snapshot_len};
  }

  /// Continue a run from a restored engine: preset the cycle/snapshot
  /// schedule from the donor's clock instead of deriving it from the
  /// first offered record. Call before the first offer().
  void resume(const core::SnapshotClock& clock) noexcept {
    next_cycle_ = clock.next_cycle;
    next_snapshot_ = clock.next_snapshot;
    newest_ts_ = clock.saved_at;
    started_ = true;
    resumed_idle_ = true;
  }

 private:
  void advance_to(util::Timestamp ts);
  void take_snapshot(util::Timestamp ts);
  void run_one_cycle(util::Timestamp ts);
  void flush_pending();
  std::uint64_t bin_buffer_bytes() const noexcept;

  core::IpdEngine& engine_;
  ValidationRun* validation_;
  RunnerConfig config_;
  std::vector<core::CycleStats> cycles_;
  std::vector<netflow::FlowRecord> bin_buffer_;
  netflow::FlowBatch pending_;  // not yet handed to the engine (SoA)
  util::Timestamp next_cycle_ = 0;
  util::Timestamp next_snapshot_ = 0;
  util::Timestamp newest_ts_ = 0;  // newest record offered (freshness gauge)
  bool started_ = false;
  bool resumed_idle_ = false;  // resumed and no record offered since
  std::uint64_t snapshots_ = 0;
};

}  // namespace ipd::analysis
