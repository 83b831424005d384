// Live introspection endpoints over a running engine.
//
// Binds the embedded HTTP server (obs::HttpServer) to one engine
// (core::IpdEngine) and its attached observability surfaces:
//
//   GET /            endpoint index (JSON)
//   GET /healthz     liveness + basic engine counters
//   GET /metrics     Prometheus text exposition of the attached registry
//   GET /ranges      paginated JSON dump of the current range partition
//   GET /explain?ip= covering range for an address + its decision history
//   GET /decisions   tail of the decision audit trail
//   GET /trace       flight-recorder tail as Chrome trace-event JSON
//   GET /health      component states + reasons from the health engine
//   GET /alerts      active alerts + recent resolved ring
//   GET /timeseries  ?name=&from= — TSDB series as JSON for dashboards
//   GET /perf        perf-counter phase totals (IPC, LLC miss rates)
//   GET /profile     ?seconds=&hz=&clock=cpu|wall — sample the process for
//                    `seconds`, return folded flamegraph stacks (text)
//   GET /flows       ?limit=&format=json|text — sampled flow journeys with
//                    per-hop timestamps and correlated stage-2 decisions
//   GET /threads     ?format=json|text — per-thread scheduler stats from
//                    /proc/self/task plus watchdog task/stall state
//   GET /locks       ?limit=&format=json|text — per-site lock contention
//                    (wait/hold p50/p99/max, contention ratio)
//   GET /shards      stage-2 cut + per-shard flow load / imbalance ratio
//                    (shard_count 1 on a one-shard engine)
//   GET /snapshot    warm-restart snapshot state: last save/restore,
//                    bytes, data-time age, configured path
//
// The engine is shared with the ingest thread: every handler takes
// `engine_mutex` around engine access, and the ingest side must hold the
// same mutex around offer()/run_cycle() batches. The mutex is an
// obs::InstrumentedMutex — introspection-vs-ingest contention shows up in
// /locks like every other site. The engine's sinks, the time-series store
// and the health engine are internally synchronized and are read without
// the engine mutex, so /trace /decisions /perf /flows /health /alerts
// /timeseries /threads /locks never stall ingest.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "core/engine_base.hpp"
#include "core/snapshot.hpp"
#include "obs/flow_trace.hpp"
#include "obs/http_server.hpp"
#include "obs/lock_stats.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"

namespace ipd::analysis {

class HealthEngine;

/// Render one sampled flow journey as JSON with its stage-2 decisions
/// correlated through the decision log: every event covering the flow's IP
/// at or after the flow's data time, i.e. the classify/split/demote
/// decisions its range went through after this flow touched it. Shared by
/// the /flows endpoint and `ipd_replay --flow-trace-out` (JSONL).
std::string flow_journey_json(const obs::FlowJourney& journey,
                              const core::DecisionLog* log);

/// One-line operator-readable form (the /flows?format=text surface that
/// ipd_top renders verbatim).
std::string flow_journey_text(const obs::FlowJourney& journey,
                              const core::DecisionLog* log);

struct IntrospectionConfig {
  std::size_t default_page = 100;  // /ranges rows per page by default
  std::size_t max_page = 1000;     // /ranges hard cap on `limit`
  std::size_t trace_tail = 4096;   // /trace events by default
  // /profile bounds: the handler blocks the (single) serving thread for
  // the sampled duration, so cap it; hz defaults prime to avoid
  // phase-locking with periodic work.
  std::size_t profile_max_seconds = 30;
  int profile_default_hz = 97;
};

class IntrospectionServer {
 public:
  /// `engine` and `engine_mutex` must outlive the server. /metrics,
  /// /decisions, /trace, /perf and /flows find their sinks through
  /// engine.observers() at request time, and a streamed response keeps
  /// reading them, so a sink replaced by observe() must still outlive the
  /// server. /profile samples the process.
  IntrospectionServer(core::IpdEngine& engine,
                      obs::InstrumentedMutex& engine_mutex,
                      IntrospectionConfig config = {});

  /// Serve /health and /alerts from `health` (must outlive the server;
  /// internally synchronized — handlers bypass the engine mutex).
  void attach_health(const HealthEngine& health) noexcept {
    health_ = &health;
  }

  /// Serve /timeseries from `store` (same lifetime/locking contract).
  void attach_timeseries(const obs::TimeSeriesStore& store) noexcept {
    timeseries_ = &store;
  }

  /// Serve /snapshot from `telemetry` (internally synchronized; must
  /// outlive the server): last save/restore, bytes, data-time age, and
  /// the configured snapshot path.
  void attach_snapshots(const core::SnapshotTelemetry& telemetry) noexcept {
    snapshots_ = &telemetry;
  }

  /// Fold `watchdog` task/stall state into /threads (internally
  /// synchronized; must outlive the server). /threads and /locks work
  /// without any attachment — they read /proc and the process-global lock
  /// registry directly.
  void attach_watchdog(const obs::Watchdog& watchdog) noexcept {
    watchdog_ = &watchdog;
  }

  /// Register a "http.serve" heartbeat on `watchdog` and beat it from the
  /// serve loop. The budget must exceed the longest legitimate handler
  /// (/profile blocks up to profile_max_seconds), so default generously.
  void register_heartbeat(obs::Watchdog& watchdog, std::int64_t budget_ms);

  /// Bind 127.0.0.1:`port` (0 = ephemeral) and serve until stop().
  bool start(std::uint16_t port, std::string* error = nullptr);
  void stop() { server_.stop(); }

  bool running() const noexcept { return server_.running(); }
  std::uint16_t port() const noexcept { return server_.port(); }
  std::uint64_t requests_served() const noexcept {
    return server_.requests_served();
  }

 private:
  obs::HttpResponse handle_index(const obs::HttpRequest& request);
  obs::HttpResponse handle_healthz(const obs::HttpRequest& request);
  obs::HttpResponse handle_metrics(const obs::HttpRequest& request);
  obs::HttpResponse handle_ranges(const obs::HttpRequest& request);
  obs::HttpResponse handle_explain(const obs::HttpRequest& request);
  obs::HttpResponse handle_decisions(const obs::HttpRequest& request);
  obs::HttpResponse handle_trace(const obs::HttpRequest& request);
  obs::HttpResponse handle_health(const obs::HttpRequest& request);
  obs::HttpResponse handle_alerts(const obs::HttpRequest& request);
  obs::HttpResponse handle_timeseries(const obs::HttpRequest& request);
  obs::HttpResponse handle_perf(const obs::HttpRequest& request);
  obs::HttpResponse handle_profile(const obs::HttpRequest& request);
  obs::HttpResponse handle_flows(const obs::HttpRequest& request);
  obs::HttpResponse handle_threads(const obs::HttpRequest& request);
  obs::HttpResponse handle_snapshot(const obs::HttpRequest& request);
  obs::HttpResponse handle_locks(const obs::HttpRequest& request);
  obs::HttpResponse handle_shards(const obs::HttpRequest& request);

  core::IpdEngine& engine_;
  obs::InstrumentedMutex& engine_mutex_;
  IntrospectionConfig config_;
  const HealthEngine* health_ = nullptr;
  const obs::TimeSeriesStore* timeseries_ = nullptr;
  const obs::Watchdog* watchdog_ = nullptr;
  const core::SnapshotTelemetry* snapshots_ = nullptr;
  obs::HttpServer server_;
};

}  // namespace ipd::analysis
