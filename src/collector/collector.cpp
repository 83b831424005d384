#include "collector/collector.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/build_info.hpp"
#include "obs/flow_trace.hpp"
#include "obs/perf_counters.hpp"
#include "obs/thread_stats.hpp"
#include "util/logging.hpp"
#include "util/thread.hpp"

namespace {

ipd::core::EngineConfig engine_config(
    const ipd::collector::CollectorConfig& config) {
  ipd::core::EngineConfig engine;
  engine.shard_bits = std::max(config.shard_bits, 0);
  engine.ingest_threads = config.ingest_threads;
  return engine;
}

}  // namespace

namespace ipd::collector {

CollectorService::CollectorService(core::IpdParams params,
                                   CollectorConfig config,
                                   std::size_t n_sources)
    : config_(config),
      engine_(params, engine_config(config)),
      // Count-constructed in place: SourceMetrics holds atomics (LogSite)
      // and is therefore not movable, which rules out resize().
      source_metrics_(n_sources) {
  if (n_sources == 0) {
    throw std::invalid_argument("CollectorService: need at least one source");
  }
  rings_.reserve(n_sources);
  for (std::size_t i = 0; i < n_sources; ++i) {
    // Handle ring: every admitted batch holds >= 1 record and the record
    // budget caps in-flight records at the ring's (power-of-two rounded)
    // capacity, so a slot is always free whenever the budget admits.
    rings_.push_back(std::make_unique<BatchRings>(config_.ring_capacity));
  }
  ipfix_parsers_.resize(n_sources);
  if (config_.metrics != nullptr) obs::register_build_info(*config_.metrics);
  // The readers record Decode hops themselves: synth_decode stays off.
  engine_.observe({.metrics = config_.metrics,
                   .perf = config_.perf,
                   .flow_trace = config_.flow_trace});
  if (config_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *config_.metrics;
    for (std::size_t i = 0; i < n_sources; ++i) {
      const obs::Labels source{{"source", std::to_string(i)}};
      source_metrics_[i].ring_depth = &registry.gauge(
          "ipd_ring_depth", "Flow records queued in the reader ring", source);
      source_metrics_[i].ring_dropped = &registry.counter(
          "ipd_ring_dropped_total",
          "Flow records refused by a full reader ring (lost unless the "
          "reader resubmits them)",
          source);
      source_metrics_[i].flows_enqueued = &registry.counter(
          "ipd_ring_enqueued_total", "Flow records accepted into the ring",
          source);
    }
    datagrams_ok_metric_ = &registry.counter(
        "ipd_datagrams_total", "Export datagrams received", {{"result", "ok"}});
    datagrams_malformed_metric_ =
        &registry.counter("ipd_datagrams_total", "Export datagrams received",
                          {{"result", "malformed"}});
    snapshots_metric_ = &registry.counter("ipd_snapshots_published_total",
                                          "LPM tables published");
    ring_residency_ = &registry.histogram(
        "ipd_ring_residency_seconds",
        "Wall time a flow record spends queued in a reader ring",
        obs::Histogram::exponential_bounds(1e-6, 4.0, 12));
    ring_residency_p99_ = &registry.gauge(
        "ipd_ring_residency_p99_seconds",
        "p99 of ring residency (gauge form so the TSDB and health rules "
        "can window it; histograms bridge as _sum/_count only)");
    freshness_metric_ = &registry.gauge(
        "ipd_freshness_seconds",
        "Pipeline freshness in data time: newest decoded flow timestamp "
        "minus the data time of the last published LPM table");
  }
  if (config_.perf != nullptr) {
    drain_layer_ = obs::Layer("collector.drain", 1, nullptr, nullptr,
                              config_.perf);
  }
  if (config_.watchdog != nullptr) {
    wd_drain_task_ = config_.watchdog->register_task("collector.drain",
                                                     config_.drain_budget_ms);
    wd_cycle_task_ = config_.watchdog->register_task("engine.cycle",
                                                     config_.cycle_budget_ms);
  }
  if (config_.flow_trace != nullptr && config_.metrics != nullptr) {
    config_.flow_trace->bind_metrics(config_.metrics);
  }
  // Statistical time sits between the rings and the engine: drifted or
  // implausible router timestamps are normalized/discarded before they can
  // disturb the engine's data clock.
  config_.stat_time.bucket_len = params.t;
  stat_time_ = std::make_unique<netflow::StatisticalTime>(
      config_.stat_time,
      [this](const netflow::FlowBatch& bucket) { ingest_bucket(bucket); });
  table_ = std::make_shared<const core::LpmTable>();
}

CollectorService::~CollectorService() { stop(); }

CollectorService::BatchRings::~BatchRings() {
  TimedBatch timed;
  while (queued.try_pop(timed)) delete timed.batch;
  netflow::FlowBatch* batch = nullptr;
  while (returned.try_pop(batch)) delete batch;
}

netflow::FlowBatch& CollectorService::reader_batch(std::size_t source) {
  std::unique_ptr<netflow::FlowBatch>& spare =
      source_metrics_.at(source).spare;
  if (!spare) {
    netflow::FlowBatch* recycled = nullptr;
    if (rings_[source]->returned.try_pop(recycled)) {
      spare.reset(recycled);
    } else {
      spare = std::make_unique<netflow::FlowBatch>();
    }
  }
  spare->clear();
  return *spare;
}

std::size_t CollectorService::submit_datagram(
    std::size_t source, topology::RouterId exporter,
    std::span<const std::uint8_t> bytes) {
  datagrams_in_.fetch_add(1, std::memory_order_relaxed);
  if (bytes.size() >= 2) {
    const std::uint16_t version =
        static_cast<std::uint16_t>((bytes[0] << 8) | bytes[1]);
    if (version == netflow::ipfix::kVersion) {
      netflow::FlowBatch& batch = reader_batch(source);
      if (!ipfix_parsers_.at(source).parse_batch(bytes, exporter, batch)) {
        datagrams_malformed_.fetch_add(1, std::memory_order_relaxed);
        if (datagrams_malformed_metric_) datagrams_malformed_metric_->inc();
        util::log_limited(source_metrics_.at(source).malformed_warn_site, 1,
                          util::LogLevel::Warn,
                          "collector: malformed IPFIX datagram",
                          {{"source", source},
                           {"exporter", exporter},
                           {"bytes", bytes.size()}});
        return 0;
      }
      if (datagrams_ok_metric_) datagrams_ok_metric_->inc();
      return enqueue_batch(source);
    }
    if (version == netflow::v5::kVersion) {
      netflow::FlowBatch& batch = reader_batch(source);
      if (netflow::v5::decode_batch(bytes, exporter, batch)) {
        if (datagrams_ok_metric_) datagrams_ok_metric_->inc();
        return enqueue_batch(source);
      }
    }
  }
  datagrams_malformed_.fetch_add(1, std::memory_order_relaxed);
  if (datagrams_malformed_metric_) datagrams_malformed_metric_->inc();
  util::log_limited(
      source_metrics_.at(source).malformed_warn_site, 1, util::LogLevel::Warn,
      "collector: undecodable export datagram",
      {{"source", source}, {"exporter", exporter}, {"bytes", bytes.size()}});
  return 0;
}

std::size_t CollectorService::submit_records(
    std::size_t source, std::span<const netflow::FlowRecord> records) {
  netflow::append_records(reader_batch(source), records);
  return enqueue_batch(source);
}

std::size_t CollectorService::enqueue_batch(std::size_t source) {
  auto& ring = rings_.at(source)->queued;
  SourceMetrics& sm = source_metrics_.at(source);
  netflow::FlowBatch& batch = *sm.spare;
  const std::size_t n = batch.size();
  // One clock read per datagram's worth of records: residency resolution
  // finer than a submit call is meaningless anyway.
  const std::int64_t now_ns = obs::monotonic_ns();
  obs::FlowTracer* tracer = config_.flow_trace;
  const std::uint32_t source_detail = static_cast<std::uint32_t>(source);

  // Admission: the record budget bounds in-flight records at the ring's
  // rounded capacity, exactly the record-ring semantics. The prefix that
  // fits is admitted as one batch handle (cut in place); the tail is
  // refused per record: lost unless the caller resubmits it.
  const std::size_t budget = ring.capacity();
  const std::uint64_t queued = sm.records_queued.load(std::memory_order_acquire);
  const std::size_t remaining =
      budget > queued ? budget - static_cast<std::size_t>(queued) : 0;
  const std::size_t accept = std::min(n, remaining);

  util::Timestamp newest = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (batch.ts[k] > newest) newest = batch.ts[k];
    if (tracer != nullptr) {
      const net::IpAddress masked = batch.src_ip[k].masked(
          engine_.params().cidr_max(batch.src_ip[k].family()));
      const std::uint64_t flow_id =
          tracer->observe(obs::FlowHopKind::Decode, batch.ts[k], masked,
                          batch.ingress[k], source_detail);
      if (flow_id != 0 && k < accept) {
        tracer->record(flow_id, obs::FlowHopKind::RingEnqueue, batch.ts[k],
                       masked, batch.ingress[k], source_detail);
      }
    }
  }
  // Advance the newest-decoded watermark (readers race; keep the max).
  util::Timestamp seen = newest_decoded_ts_.load(std::memory_order_relaxed);
  while (newest > seen && !newest_decoded_ts_.compare_exchange_weak(
                              seen, newest, std::memory_order_relaxed)) {
  }

  std::size_t accepted = 0;
  if (accept > 0) {
    batch.truncate(accept);
    sm.records_queued.fetch_add(accept, std::memory_order_release);
    if (ring.try_push(TimedBatch{sm.spare.get(), now_ns})) {
      sm.spare.release();  // the ring owns it now
      accepted = accept;
    } else {
      // Unreachable by the budget invariant; keep the accounting honest
      // anyway.
      sm.records_queued.fetch_sub(accept, std::memory_order_release);
    }
  }
  const std::size_t refused = n - accepted;
  if (refused > 0) {
    flows_dropped_.fetch_add(refused, std::memory_order_relaxed);
    if (sm.ring_dropped) sm.ring_dropped->inc(refused);
    util::log_limited(sm.drop_warn_site, 1, util::LogLevel::Warn,
                      "collector: ring full, refusing flow records (lost "
                      "unless the reader resubmits them)",
                      {{"source", source},
                       {"refused", refused},
                       {"capacity", ring.capacity()}});
  }
  flows_enqueued_.fetch_add(accepted, std::memory_order_relaxed);
  if (sm.flows_enqueued) sm.flows_enqueued->inc(accepted);
  return accepted;
}

void CollectorService::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  ipd_thread_ = std::thread([this] { ipd_loop(); });
}

void CollectorService::stop() {
  if (!running_.exchange(false)) return;
  if (ipd_thread_.joinable()) ipd_thread_.join();
  // Final drain on the caller's thread: rings may still hold records.
  bool any_left = true;
  while (any_left) {
    drain_once();
    any_left = false;
    for (const auto& rings : rings_) any_left |= !rings->queued.empty();
  }
  stat_time_->flush();
  flush_engine_pending();
  update_ring_gauges();
  if (!clock_started_) return;
  // As on the record path, a publish at boundary T follows the cycle at T.
  run_cycles_through(next_snapshot_);
  publish(next_snapshot_);
}

void CollectorService::ingest_bucket(const netflow::FlowBatch& bucket) {
  // Rows join the pending engine batch in runs. A run ends at the first row
  // that reaches the next cycle or snapshot boundary — that row is
  // ingested before the boundary fires, the collector's tie-break — or
  // where the pending batch reaches engine_batch rows. Every apply_batch
  // call therefore sees the rows a record-at-a-time feed would give it.
  const std::size_t batch_rows = std::max<std::size_t>(config_.engine_batch, 1);
  std::size_t pos = 0;
  while (pos < bucket.size()) {
    // Advance the data clock: stage 2 runs on data time, not wall time.
    if (!clock_started_) {
      const util::Duration t = engine_.params().t;
      const util::Duration snap = config_.snapshot_len;
      next_cycle_ = util::bucket_start(bucket.ts[pos], t) + t;
      next_snapshot_ = util::bucket_start(bucket.ts[pos], snap) + snap;
      clock_started_ = true;
    }
    const util::Timestamp boundary = std::min(next_cycle_, next_snapshot_);
    const std::size_t end =
        std::min(bucket.size(), pos + (batch_rows - engine_pending_.size()));
    std::size_t k = pos;
    while (k < end && bucket.ts[k] < boundary) ++k;
    if (k == end) {
      engine_pending_.append_rows(bucket, pos, end);
      if (engine_pending_.size() >= batch_rows) flush_engine_pending();
      pos = end;
      continue;
    }
    const util::Timestamp ts = bucket.ts[k];
    engine_pending_.append_rows(bucket, pos, k + 1);
    flush_engine_pending();
    run_cycles_through(ts);
    while (ts >= next_snapshot_) {
      publish(next_snapshot_);
      next_snapshot_ += config_.snapshot_len;
    }
    pos = k + 1;
  }
}

void CollectorService::flush_engine_pending() {
  if (engine_pending_.empty()) return;
  engine_.apply_batch(engine_pending_);
  engine_pending_.clear();
}

void CollectorService::run_cycles_through(util::Timestamp ts) {
  while (next_cycle_ <= ts) {
    const obs::WatchdogScope cycle_scope(config_.watchdog, wd_cycle_task_);
    engine_.run_cycle(next_cycle_);
    next_cycle_ += engine_.params().t;
  }
}

bool CollectorService::drain_once() {
  bool any = false;
  // One clock read per drain round: residency error is bounded by the
  // round's own duration, which the histogram's microsecond buckets absorb.
  const std::int64_t now_ns =
      (ring_residency_ != nullptr || config_.flow_trace != nullptr)
          ? obs::monotonic_ns()
          : 0;
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    // Drain whole batches until this ring's record share of the round is
    // met (drain_batch stays denominated in records; rounding to batch
    // granularity keeps no source minutes ahead of the others).
    std::size_t drained = 0;
    TimedBatch timed;
    while (drained < config_.drain_batch && rings_[i]->queued.try_pop(timed)) {
      const netflow::FlowBatch& batch = *timed.batch;
      if (ring_residency_ != nullptr) {
        // Every record of a batch was enqueued together: one weighted
        // observation stands for all of them.
        ring_residency_->observe(
            static_cast<double>(now_ns - timed.enq_ns) * 1e-9, batch.size());
      }
      if (obs::FlowTracer* tracer = config_.flow_trace) {
        for (std::size_t k = 0; k < batch.size(); ++k) {
          tracer->observe(obs::FlowHopKind::RingDequeue, batch.ts[k],
                          batch.src_ip[k].masked(engine_.params().cidr_max(
                              batch.src_ip[k].family())),
                          batch.ingress[k], static_cast<std::uint32_t>(i));
        }
      }
      stat_time_->offer(batch);
      drained += batch.size();
      // Subtract from the budget only after the batch is fully handed to
      // statistical time — until then the records still occupy pipeline
      // memory, and the producer may not overwrite it.
      source_metrics_[i].records_queued.fetch_sub(batch.size(),
                                                  std::memory_order_release);
      // Statistical time has copied the rows: the batch goes back to its
      // reader. The return ring is as large as the forward one, so it can
      // only be full when nearly every batch in flight held one record;
      // the batch is then freed here instead.
      if (!rings_[i]->returned.try_push(timed.batch)) delete timed.batch;
    }
    any |= drained > 0;
  }
  return any;
}

void CollectorService::update_ring_gauges() {
  if (config_.metrics == nullptr) return;
  for (std::size_t i = 0; i < rings_.size(); ++i) {
    // Depth in records (not batch handles): the per-source budget counter.
    source_metrics_[i].ring_depth->set(static_cast<double>(
        source_metrics_[i].records_queued.load(std::memory_order_relaxed)));
  }
  ring_residency_p99_->set(ring_residency_->quantile(0.99));
  freshness_metric_->set(static_cast<double>(freshness_seconds()));
}

util::Duration CollectorService::freshness_seconds() const noexcept {
  const util::Timestamp newest =
      newest_decoded_ts_.load(std::memory_order_relaxed);
  const util::Timestamp published =
      published_ts_.load(std::memory_order_relaxed);
  // Before the first publish (or decode) there is no lag to report yet.
  if (published == 0 || newest <= published) return 0;
  return newest - published;
}

void CollectorService::ipd_loop() {
  util::set_current_thread_name("ipd-collect");
  // Charge only busy rounds (the previous round moved records): scoping
  // idle polls would be almost all syscall overhead, and the sleep below
  // contributes no task-clock anyway.
  bool was_busy = true;
  const obs::Layer idle_round;  // detached: idle polls go untimed
  while (running_.load(std::memory_order_relaxed)) {
    if (config_.watchdog != nullptr) config_.watchdog->beat(wd_drain_task_);
    obs::Scope scope(was_busy ? drain_layer_ : idle_round);
    const bool any = drain_once();
    update_ring_gauges();
    scope.close();
    was_busy = any;
    if (!any) {
      // Idle: yield briefly rather than spin at 100 %.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  // A stopped loop is not a stalled one.
  if (config_.watchdog != nullptr) config_.watchdog->disarm(wd_drain_task_);
}

void CollectorService::publish(util::Timestamp ts) {
  auto snapshot = core::take_snapshot(engine_, ts);
  auto table = std::make_shared<const core::LpmTable>(
      core::LpmTable::from_snapshot(snapshot));
  {
    // Swap, not assign: the old table and snapshot come back out and are
    // freed at the end of this function, outside the lock that every
    // current_table() call takes.
    const std::lock_guard<obs::InstrumentedMutex> lock(publish_mutex_);
    table_.swap(table);
    snapshot_.swap(snapshot);
  }
  snapshots_.fetch_add(1, std::memory_order_relaxed);
  if (snapshots_metric_) snapshots_metric_->inc();
  published_ts_.store(ts, std::memory_order_relaxed);
  if (freshness_metric_ != nullptr) {
    freshness_metric_->set(static_cast<double>(freshness_seconds()));
  }
  // Snapshot cadence is the right rate for the execution-observability
  // gauges too: lock sites are a handful of relaxed loads, thread stats a
  // few small /proc reads.
  if (config_.metrics != nullptr) {
    obs::publish_lock_metrics(*config_.metrics);
    obs::publish_thread_metrics(obs::sample_process_threads(),
                                *config_.metrics);
  }
}

std::shared_ptr<const core::LpmTable> CollectorService::current_table() const {
  const std::lock_guard<obs::InstrumentedMutex> lock(publish_mutex_);
  return table_;
}

core::Snapshot CollectorService::latest_snapshot() const {
  const std::lock_guard<obs::InstrumentedMutex> lock(publish_mutex_);
  return snapshot_;
}

CollectorStats CollectorService::stats() const {
  CollectorStats stats;
  stats.datagrams_in = datagrams_in_.load();
  stats.datagrams_malformed = datagrams_malformed_.load();
  stats.flows_enqueued = flows_enqueued_.load();
  stats.flows_dropped_ring = flows_dropped_.load();
  stats.flows_ingested = engine_.stats().flows_ingested;
  stats.cycles_run = engine_.stats().cycles_run;
  stats.snapshots_published = snapshots_.load();
  return stats;
}

}  // namespace ipd::collector
