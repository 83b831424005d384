// The collector tier: NetFlow datagrams in, a single IPD engine out.
//
// Mirrors the deployment architecture of §5.7: "the machine receives and
// processes live 300 billion flow records per day ... processes that
// handle incoming flow data and a single-core process that executes the
// central part of the IPD". Here:
//
//   reader threads (one per configured source)
//     -> decode NetFlow v5 / IPFIX datagrams straight into SoA FlowBatches
//        (SWAR fixed-layout fast paths), stamp the exporter router
//     -> per-reader SPSC ring of batch handles (capacity still counted in
//        flow records via a per-source record budget)
//   IPD thread
//     -> drains all rings batch-wise into statistical time, which stages
//        rows per bucket column by column, then hands each drained batch
//        back to its reader over a second SPSC ring for reuse
//     -> ingests sealed buckets via the engine's batched apply path, fires
//        stage-2 cycles on data time
//
// A full ring refuses the records that do not fit, and a malformed
// datagram is discarded; both are counted and neither blocks, since flow
// export is lossy by design. A refused record is lost unless the reader
// resubmits it (submit_* returns how many were accepted).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "collector/spsc_ring.hpp"
#include "core/engine.hpp"
#include "core/lpm_table.hpp"
#include "core/output.hpp"
#include "netflow/flow_batch.hpp"
#include "netflow/ipfix.hpp"
#include "netflow/statistical_time.hpp"
#include "netflow/v5.hpp"
#include "obs/lock_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "util/logging.hpp"

namespace ipd::obs {
class FlowTracer;
}

namespace ipd::collector {

struct CollectorConfig {
  // Per reader, in flow records. The rings themselves carry decoded SoA
  // batch handles; a per-source record budget keeps this denominated in
  // records regardless of how the records are grouped into batches.
  std::size_t ring_capacity = 1 << 16;
  netflow::StatisticalTimeConfig stat_time;
  util::Duration snapshot_len = 300;  // publish an LPM table every 5 min
  // Records per ring per drain round. Small enough that no source can race
  // minutes ahead of the others in data time — the statistical-time skew
  // filter would otherwise discard the laggards' records as implausible.
  std::size_t drain_batch = 256;
  // Optional sinks (each must outlive the service), handed to the engine
  // as its observer bundle. The collector also adds per-source ring and
  // datagram series to `metrics`, charges busy drain rounds to a
  // "collector.drain" `perf` phase, and records decode, ring-enqueue and
  // ring-dequeue hops for sampled flows in `flow_trace`.
  obs::MetricsRegistry* metrics = nullptr;
  obs::PerfCounters* perf = nullptr;
  obs::FlowTracer* flow_trace = nullptr;
  // Optional stall watchdog (must outlive the service). The collector
  // registers two tasks: "collector.drain", beaten every IPD-loop round
  // (budget drain_budget_ms — generous vs the sub-ms round so sanitizer
  // hosts never false-positive), and "engine.cycle", armed/disarmed around
  // each stage-2 run_cycle (budget cycle_budget_ms vs the paper's 60 s
  // cycle budget).
  obs::Watchdog* watchdog = nullptr;
  std::int64_t drain_budget_ms = 30000;
  std::int64_t cycle_budget_ms = 120000;
  // Engine shape: 2^shard_bits shards per family (negative means one
  // shard, the same as 0) and `ingest_threads` stage-1/stage-2 workers.
  int shard_bits = -1;
  int ingest_threads = 1;
  // Records buffered on the IPD thread before an apply_batch() handoff.
  // Boundaries always flush first, so cycle semantics are unchanged.
  std::size_t engine_batch = 1024;
};

struct CollectorStats {
  std::uint64_t datagrams_in = 0;
  std::uint64_t datagrams_malformed = 0;
  std::uint64_t flows_enqueued = 0;
  // Records a full ring refused; lost unless the reader resubmitted them.
  std::uint64_t flows_dropped_ring = 0;
  std::uint64_t flows_ingested = 0;
  std::uint64_t cycles_run = 0;
  std::uint64_t snapshots_published = 0;
};

/// Owns the engine and the reader/IPD threads.
///
/// Sources push raw datagram bytes via `submit_datagram` (thread-safe per
/// source id; a real deployment would call it from a UDP socket loop).
/// The IPD thread runs until stop(). Consumers read the latest published
/// LPM table with `current_table()` — published tables are immutable
/// snapshots behind a shared_ptr, so lookups never block ingestion.
class CollectorService {
 public:
  CollectorService(core::IpdParams params, CollectorConfig config,
                   std::size_t n_sources);
  ~CollectorService();

  CollectorService(const CollectorService&) = delete;
  CollectorService& operator=(const CollectorService&) = delete;

  /// Feed one export datagram from source `source` (0..n_sources-1),
  /// emitted by border router `exporter`. The protocol is auto-detected
  /// from the version field: NetFlow v5 or IPFIX (templates are tracked
  /// per source). Thread-safe for distinct sources; each source must be
  /// fed from a single thread (SPSC). Returns the number of flow records
  /// accepted into the ring.
  std::size_t submit_datagram(std::size_t source, topology::RouterId exporter,
                              std::span<const std::uint8_t> bytes);

  /// Same entry point for already-parsed records (internal feeds).
  std::size_t submit_records(std::size_t source,
                             std::span<const netflow::FlowRecord> records);

  /// Start the IPD thread.
  void start();

  /// Drain everything still queued, then stop the IPD thread.
  void stop();

  /// The most recently published lookup table (never null; empty table
  /// before the first snapshot). Lookup results point into the table, so
  /// hold this shared_ptr for as long as they are used.
  std::shared_ptr<const core::LpmTable> current_table() const;

  /// Latest snapshot of all ranges (copy; for dashboards/tests).
  core::Snapshot latest_snapshot() const;

  /// Monitoring counters. Engine-side counters are written only by the IPD
  /// thread; concurrent reads are monotone approximations intended for
  /// dashboards, not for synchronization.
  CollectorStats stats() const;

  const core::IpdEngine& engine() const noexcept { return engine_; }

  /// Pipeline freshness in data-time seconds: newest decoded flow
  /// timestamp minus the data time of the last published table (0 before
  /// the first publish/decode). This is what ipd_freshness_seconds reports.
  util::Duration freshness_seconds() const noexcept;

 private:
  /// Ring payload: one decoded SoA batch (a datagram's worth of records)
  /// plus its enqueue stamp, so the dequeue side can histogram ring
  /// residency without a sidecar queue. The pointer does not own: a batch
  /// belongs to its source's BatchRings while it is queued and to the
  /// reader's `spare` slot while it is being filled.
  struct TimedBatch {
    netflow::FlowBatch* batch = nullptr;
    std::int64_t enq_ns = 0;
  };
  /// One source's two rings. Decoded batches go to the IPD thread on
  /// `queued`; once statistical time has copied their rows they come back
  /// on `returned`, and the reader decodes into them again. In the steady
  /// state a datagram allocates nothing, and no thread frees what another
  /// allocated. Both rings have the same capacity, and every batch queued
  /// in either is owned (and freed) here.
  struct BatchRings {
    explicit BatchRings(std::size_t capacity)
        : queued(capacity), returned(capacity) {}
    ~BatchRings();
    BatchRings(const BatchRings&) = delete;
    BatchRings& operator=(const BatchRings&) = delete;

    SpscRing<TimedBatch> queued;             // reader -> IPD thread
    SpscRing<netflow::FlowBatch*> returned;  // IPD thread -> reader
  };
  /// Per-source metric handles (null when no registry is configured) plus
  /// per-source hot state.
  struct SourceMetrics {
    obs::Gauge* ring_depth = nullptr;
    obs::Counter* ring_dropped = nullptr;
    obs::Counter* flows_enqueued = nullptr;
    // Flow records admitted to this source's ring and not yet drained by
    // the IPD thread. The ring carries batch handles; this budget keeps
    // ring_capacity denominated in records (the producer adds on
    // admission, the consumer subtracts after a batch is processed), so
    // overflow/drop accounting is per record exactly as before.
    std::atomic<std::uint64_t> records_queued{0};
    // Reader side: the batch the next datagram decodes into — a returned
    // one, or a new one when none is waiting. It stays here when nothing
    // of it was enqueued (malformed, or the ring had no room).
    std::unique_ptr<netflow::FlowBatch> spare;
    // Warn once per source, thread-safely; further records count into
    // log_dropped_total / ipd_log_dropped_total instead of vanishing.
    util::LogSite drop_warn_site;
    util::LogSite malformed_warn_site;
  };

  void ipd_loop();
  bool drain_once();  // returns whether any ring yielded records
  // The source's spare batch, cleared, to decode into.
  netflow::FlowBatch& reader_batch(std::size_t source);
  // Admit the source's spare batch (or the prefix that fits) to its ring.
  std::size_t enqueue_batch(std::size_t source);
  // Statistical time's sink: one sealed bucket, rows in arrival order.
  void ingest_bucket(const netflow::FlowBatch& bucket);
  void flush_engine_pending();
  // Run every stage-2 cycle due at or before `ts`.
  void run_cycles_through(util::Timestamp ts);
  void publish(util::Timestamp ts);
  void update_ring_gauges();

  CollectorConfig config_;
  core::IpdEngine engine_;
  netflow::FlowBatch engine_pending_;  // batched ingest buffer (SoA)
  std::vector<std::unique_ptr<BatchRings>> rings_;
  std::vector<SourceMetrics> source_metrics_;
  obs::Counter* datagrams_ok_metric_ = nullptr;
  obs::Counter* datagrams_malformed_metric_ = nullptr;
  obs::Counter* snapshots_metric_ = nullptr;
  obs::Histogram* ring_residency_ = nullptr;
  obs::Gauge* ring_residency_p99_ = nullptr;
  obs::Gauge* freshness_metric_ = nullptr;
  std::vector<netflow::ipfix::Parser> ipfix_parsers_;  // one per source
  std::unique_ptr<netflow::StatisticalTime> stat_time_;

  std::thread ipd_thread_;
  std::atomic<bool> running_{false};
  obs::Layer drain_layer_;  // collector.drain: busy rounds, perf sink only
  obs::Watchdog::TaskId wd_drain_task_ = 0;  // valid iff config_.watchdog
  obs::Watchdog::TaskId wd_cycle_task_ = 0;

  // Published results (RCU-style: swap a shared_ptr under a light mutex).
  mutable obs::InstrumentedMutex publish_mutex_{"collector.publish"};
  std::shared_ptr<const core::LpmTable> table_;
  core::Snapshot snapshot_;

  // Stats: per-reader counters are plain atomics.
  std::atomic<std::uint64_t> datagrams_in_{0};
  std::atomic<std::uint64_t> datagrams_malformed_{0};
  std::atomic<std::uint64_t> flows_enqueued_{0};
  std::atomic<std::uint64_t> flows_dropped_{0};
  std::atomic<std::uint64_t> snapshots_{0};
  // Freshness endpoints: readers advance the newest decoded data time,
  // publish() records the data time of the last published table.
  std::atomic<util::Timestamp> newest_decoded_ts_{0};
  std::atomic<util::Timestamp> published_ts_{0};

  util::Timestamp next_cycle_ = 0;
  util::Timestamp next_snapshot_ = 0;
  bool clock_started_ = false;
};

}  // namespace ipd::collector
