// ipd_replay — run IPD over a recorded trace file.
//
// Usage: ipd_replay [flags] <in.trace> [ncidr_factor4=auto] [q=0.95]
//
//   --metrics-out=<file>    write a Prometheus text-exposition snapshot of
//                           the full metrics registry after the replay
//   --metrics-jsonl=<file>  append one JSON metrics line per 5-minute bin
//   --log-json              emit structured log lines as JSON
//   --http-port=<port>      serve the live introspection endpoints
//                           (/healthz /metrics /ranges /explain /decisions
//                           /trace) on 127.0.0.1:<port> while replaying
//                           (0 picks an ephemeral port, printed on start)
//   --trace-out=<file>      attach the flight-recorder tracer; write the
//                           Chrome trace-event JSON to <file> at exit and
//                           to <file>.crash on a fatal signal
//   --decision-log[=N]      record stage-2 decisions into a ring of N
//                           events (default 8192); surfaced by /explain
//                           and /decisions
//   --alerts-out=<file>     append one JSON line per health-alert event
//                           (raise and resolve) from the health engine
//   --linger=<seconds>      keep serving HTTP for this long after the
//                           replay finishes (for scrapes / smoke tests)
//   --shards=<N>            shards per family (power of two, 1..65536;
//                           default 1, the sequential engine)
//   --ingest-threads=<M>    worker threads for the engine's stage-1
//                           fan-out and stage-2 shard cycles (default 1;
//                           implies --shards=16 if not given)
//   --batch-size=<N>        records buffered per apply_batch() handoff to
//                           the engine (default 4096; boundaries always
//                           flush first, so output is byte-identical for
//                           any N >= 1)
//   --perf-counters[=phases]
//                           attach hardware perf counters (cycles,
//                           instructions, LLC, branch misses) charged per
//                           engine phase; served at /perf and published as
//                           ipd_perf_* gauges. "=phases" additionally
//                           samples per-stage-2-phase counters via rdpmc
//                           where supported. Degrades gracefully (software
//                           task-clock only, or fully inert) where
//                           perf_event_open is restricted.
//   --profile-out=<file>    run the sampling CPU profiler across the whole
//                           replay and write folded flamegraph stacks to
//                           <file> (feed to flamegraph.pl / speedscope)
//   --profile-hz=<N>        profiler sampling rate (default 97)
//   --flow-trace-out=<file> enable flow provenance tracing and write one
//                           JSON line per sampled flow journey (hops +
//                           correlated stage-2 decisions) at exit. The
//                           sampling period defaults to 1/65536 and is
//                           overridden by IPD_FLOW_SAMPLE=<n>. Tracing is
//                           also enabled by --http-port (the /flows
//                           endpoint serves the same journeys live).
//   --snapshot-out=<file>   write a versioned warm-restart snapshot of the
//                           full engine state (atomic tmp+rename) at the
//                           5-minute bin cadence; served at /snapshot and
//                           published as ipd_snapshot_* metrics
//   --snapshot-every=<N>    take the snapshot every N bins instead of
//                           every bin (default 1; requires --snapshot-out)
//   --restore=<file>        restore engine state from a snapshot before
//                           replaying: the runner resumes the donor's
//                           cycle/snapshot clock and records older than
//                           the snapshot's data time are skipped, so the
//                           run continues byte-identically to a process
//                           that never died
//   --force-stall=<ms>      deliberately wedge a watchdog heartbeat for
//                           <ms> after the replay: the stall watchdog must
//                           detect it and capture this thread's stack — the
//                           end-to-end smoke test for stall reporting
//   --stall-report-out=<file>
//                           append one JSON line per watchdog stall report
//
// With --http-port the stall watchdog also runs: collector-style tasks are
// not present here, but the HTTP serve loop registers a heartbeat, /locks
// serves per-site lock contention, and /threads serves per-thread scheduler
// stats plus watchdog state.
//
// A TimeSeriesStore + HealthEngine always ride along: every 5-minute bin
// is ingested into the embedded TSDB and the default health rules
// (ingress shift, demotion burst, cycle overrun, ring drops, accuracy
// regression) are evaluated; /health /alerts /timeseries serve the state.
//
// Streams the trace through an IpdEngine with the standard 60 s cycle /
// 5 min snapshot cadence and prints per-snapshot partition statistics plus
// the final classified ranges in the paper's Table-3 format.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/health.hpp"
#include "analysis/introspection.hpp"
#include "analysis/runner.hpp"
#include "core/decision_log.hpp"
#include "core/engine.hpp"
#include "core/snapshot.hpp"
#include "obs/timeseries.hpp"
#include "core/output.hpp"
#include "netflow/codec.hpp"
#include "obs/build_info.hpp"
#include "obs/cpu_profiler.hpp"
#include "obs/export.hpp"
#include "obs/flow_trace.hpp"
#include "obs/lock_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/thread_stats.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/thread.hpp"

using namespace ipd;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--metrics-out=<file>] [--metrics-jsonl=<file>] "
               "[--log-json] [--http-port=<port>] [--trace-out=<file>] "
               "[--decision-log[=N]] [--alerts-out=<file>] "
               "[--linger=<seconds>] [--shards=<N>] [--ingest-threads=<M>] "
               "[--batch-size=<N>] "
               "[--perf-counters[=phases]] [--profile-out=<file>] "
               "[--profile-hz=<N>] [--flow-trace-out=<file>] "
               "[--snapshot-out=<file>] [--snapshot-every=<N>] "
               "[--restore=<file>] "
               "[--force-stall=<ms>] [--stall-report-out=<file>] "
               "<in.trace> [ncidr_factor4=auto] [q=0.95]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string metrics_out;
  std::string metrics_jsonl;
  std::string trace_out;
  std::string alerts_out;
  bool http_enabled = false;
  std::uint16_t http_port = 0;
  bool decision_log_enabled = false;
  std::size_t decision_log_capacity = core::DecisionLog::kDefaultCapacity;
  long linger_s = 0;
  int shards = -1;          // -1: unset (one shard, 16 with --ingest-threads)
  int ingest_threads = -1;  // -1: default (1)
  std::size_t batch_size = 0;  // 0: RunnerConfig default
  bool perf_enabled = false;
  bool perf_per_phase = false;
  std::string profile_out;
  int profile_hz = 97;
  std::string flow_trace_out;
  std::string snapshot_out;
  std::size_t snapshot_every = 1;
  std::string restore_path;
  long force_stall_ms = 0;
  std::string stall_report_out;
  std::vector<std::string> positional;
  util::set_current_thread_name("ipd-main");
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (util::starts_with(arg, "--metrics-out=")) {
      metrics_out = arg.substr(14);
    } else if (util::starts_with(arg, "--metrics-jsonl=")) {
      metrics_jsonl = arg.substr(16);
    } else if (arg == "--log-json") {
      util::set_log_format(util::LogFormat::Json);
    } else if (util::starts_with(arg, "--http-port=")) {
      http_enabled = true;
      http_port = static_cast<std::uint16_t>(
          util::parse_uint(arg.substr(12), 65535));
    } else if (util::starts_with(arg, "--trace-out=")) {
      trace_out = arg.substr(12);
    } else if (arg == "--decision-log") {
      decision_log_enabled = true;
    } else if (util::starts_with(arg, "--decision-log=")) {
      decision_log_enabled = true;
      decision_log_capacity = util::parse_uint(arg.substr(15), SIZE_MAX / 2);
    } else if (util::starts_with(arg, "--alerts-out=")) {
      alerts_out = arg.substr(13);
    } else if (util::starts_with(arg, "--linger=")) {
      linger_s = static_cast<long>(util::parse_uint(arg.substr(9), 86400));
    } else if (util::starts_with(arg, "--shards=")) {
      shards = static_cast<int>(util::parse_uint(arg.substr(9), 65536));
    } else if (util::starts_with(arg, "--ingest-threads=")) {
      ingest_threads = static_cast<int>(util::parse_uint(arg.substr(17), 256));
    } else if (util::starts_with(arg, "--batch-size=")) {
      batch_size = std::max<std::size_t>(
          1, util::parse_uint(arg.substr(13), 1 << 24));
    } else if (arg == "--perf-counters") {
      perf_enabled = true;
    } else if (arg == "--perf-counters=phases") {
      perf_enabled = true;
      perf_per_phase = true;
    } else if (util::starts_with(arg, "--profile-out=")) {
      profile_out = arg.substr(14);
    } else if (util::starts_with(arg, "--profile-hz=")) {
      profile_hz = static_cast<int>(util::parse_uint(arg.substr(13), 1000));
    } else if (util::starts_with(arg, "--flow-trace-out=")) {
      flow_trace_out = arg.substr(17);
    } else if (util::starts_with(arg, "--snapshot-out=")) {
      snapshot_out = arg.substr(15);
    } else if (util::starts_with(arg, "--snapshot-every=")) {
      snapshot_every = util::parse_uint(arg.substr(17), 1 << 20);
    } else if (util::starts_with(arg, "--restore=")) {
      restore_path = arg.substr(10);
    } else if (util::starts_with(arg, "--force-stall=")) {
      force_stall_ms = static_cast<long>(
          util::parse_uint(arg.substr(14), 600000));
    } else if (util::starts_with(arg, "--stall-report-out=")) {
      stall_report_out = arg.substr(19);
    } else if (util::starts_with(arg, "--")) {
      std::fprintf(stderr, "unknown flag %s\n", std::string(arg).c_str());
      return usage(argv[0]);
    } else {
      positional.emplace_back(arg);
    }
  }
  if (positional.empty()) return usage(argv[0]);

  std::ifstream in(positional[0], std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", positional[0].c_str());
    return 1;
  }
  netflow::TraceReader reader(in);

  // Buffer the trace to size the thresholds from the observed volume when
  // no explicit factor is given.
  std::vector<netflow::FlowRecord> records;
  while (auto r = reader.read()) records.push_back(*r);
  if (records.empty()) {
    std::fprintf(stderr, "trace is empty\n");
    return 1;
  }
  const double span_min =
      std::max<double>(1.0, static_cast<double>(records.back().ts -
                                                records.front().ts) /
                                60.0);
  const double fpm = static_cast<double>(records.size()) / span_min;

  core::IpdParams params;
  if (positional.size() > 1 && std::atof(positional[1].c_str()) > 0.0) {
    params.ncidr_factor4 = std::atof(positional[1].c_str());
    params.ncidr_factor6 = params.ncidr_factor4 * 24.0 / 64.0;
  } else {
    // Same scaling rule as workload::scaled_params, from the trace itself.
    const double standing = fpm / 60.0 * static_cast<double>(params.e);
    params.ncidr_factor4 = std::max(standing / (65536.0 * 3.0), 1e-4);
    params.ncidr_factor6 = std::max(params.ncidr_factor4 * 1e-5, 1e-9);
    params.ncidr_floor = 6.0;
  }
  if (positional.size() > 2) params.q = std::atof(positional[2].c_str());
  params.validate();

  util::log_info("replaying trace",
                 {{"records", records.size()},
                  {"flows_per_min", fpm},
                  {"ncidr_factor4", params.ncidr_factor4},
                  {"q", params.q}});

  // --ingest-threads without --shards implies the default shard count.
  if (ingest_threads > 0 && shards < 0) shards = 16;
  if (shards < 0) shards = 1;
  if (shards < 1 || (shards & (shards - 1)) != 0) {
    std::fprintf(stderr, "--shards must be a power of two >= 1\n");
    return 2;
  }
  core::EngineConfig engine_config;
  while ((1 << engine_config.shard_bits) < shards) ++engine_config.shard_bits;
  engine_config.ingest_threads = std::max(ingest_threads, 1);
  core::IpdEngine engine(params, engine_config);
  util::log_info("engine",
                 {{"shards", shards},
                  {"ingest_threads", engine_config.ingest_threads}});

  // One bundle, handed to the engine below. Replay is the decode stage,
  // so the engine synthesizes the flow tracer's Decode hops.
  core::EngineObservers observers{.synth_decode = true};
  obs::MetricsRegistry registry;
  observers.metrics = &registry;
  obs::bind_log_drop_metrics(registry);
  obs::register_build_info(registry);
  util::log_info("build", {{"info", obs::build_info_line()}});

  std::unique_ptr<obs::PerfCounters> perf;
  if (perf_enabled) {
    obs::PerfCountersConfig perf_config;
    perf_config.per_phase = perf_per_phase;
    perf = std::make_unique<obs::PerfCounters>(perf_config);
    observers.perf = perf.get();
    util::log_info("perf counters attached",
                   {{"available", perf->available()},
                    {"per_phase", perf_per_phase},
                    {"errno", perf->open_errno()}});
  }

  core::DecisionLog decision_log(decision_log_capacity);
  if (decision_log_enabled) observers.decisions = &decision_log;

  obs::Tracer tracer;
  if (!trace_out.empty()) {
    observers.tracer = &tracer;
    tracer.install_crash_handler(trace_out + ".crash");
  }

  // Flow provenance tracing rides along whenever the journeys have
  // somewhere to go: a JSONL file, or the live /flows endpoint.
  obs::FlowTracer flow_trace(obs::FlowTracerConfig{
      .sample_period = obs::FlowTracer::sample_period_from_env()});
  const bool flow_trace_enabled = http_enabled || !flow_trace_out.empty();
  if (flow_trace_enabled) {
    observers.flow_trace = &flow_trace;
    flow_trace.bind_metrics(&registry);
    util::log_info(
        "flow tracing enabled",
        {{"sample_period", flow_trace.sample_period()},
         {"max_flows", obs::FlowTracerConfig{}.max_flows}});
  }

  // Self-monitoring: embedded TSDB at the 5-minute cadence + the default
  // health rules over it, fed by the engine's cycle deltas.
  obs::TimeSeriesStore timeseries;
  core::CycleDeltaLog cycle_deltas;
  observers.cycle_deltas = &cycle_deltas;
  engine.observe(observers);
  analysis::HealthEngine health(timeseries);
  health.install_default_rules(params);
  health.attach_cycle_deltas(cycle_deltas);
  health.bind_metrics(registry);

  // Warm-restart snapshot lifecycle: ipd_snapshot_* metrics feed the TSDB
  // (and the snapshot-stale health rule); /snapshot serves the same state.
  core::SnapshotTelemetry snapshots;
  snapshots.bind(registry);
  if (!snapshot_out.empty()) snapshots.set_path(snapshot_out);

  std::ofstream alerts_file;
  if (!alerts_out.empty()) {
    alerts_file.open(alerts_out, std::ios::app);
    if (!alerts_file) {
      std::fprintf(stderr, "cannot open %s\n", alerts_out.c_str());
      return 1;
    }
    health.on_alert = [&alerts_file](const analysis::Alert& alert) {
      alerts_file << analysis::to_json(alert) << '\n';
      alerts_file.flush();
    };
  }

  // The stall watchdog runs whenever anything can consume its output: the
  // live endpoints, a forced-stall smoke run, or a stall-report file.
  // `stall_file` is declared first so it outlives the watchdog thread that
  // writes to it through on_stall.
  std::ofstream stall_file;
  obs::Watchdog watchdog;
  const bool watchdog_enabled =
      http_enabled || force_stall_ms > 0 || !stall_report_out.empty();
  if (watchdog_enabled) {
    watchdog.bind_metrics(registry);
    if (!stall_report_out.empty()) {
      stall_file.open(stall_report_out, std::ios::app);
      if (!stall_file) {
        std::fprintf(stderr, "cannot open %s\n", stall_report_out.c_str());
        return 1;
      }
      // Called from the watchdog thread only; the stream has no other
      // writer once the callback is installed.
      watchdog.set_on_stall([&stall_file](
                                const obs::Watchdog::StallReport& report) {
        stall_file << obs::Watchdog::report_json(report) << '\n';
        stall_file.flush();
      });
    }
    watchdog.start();
  }

  // The introspection handlers and the replay loop share the engine under
  // this mutex; the loop takes it in batches so endpoint latency stays low
  // without a per-flow lock. Instrumented: introspection-vs-replay
  // contention shows up in /locks as "replay.engine".
  obs::InstrumentedMutex engine_mutex{"replay.engine"};
  analysis::IntrospectionServer introspection(engine, engine_mutex);
  introspection.attach_health(health);
  introspection.attach_timeseries(timeseries);
  introspection.attach_snapshots(snapshots);
  if (watchdog_enabled) {
    introspection.attach_watchdog(watchdog);
    // Budget must exceed the longest legitimate handler: /profile blocks
    // the serving thread for up to profile_max_seconds (30 s).
    introspection.register_heartbeat(watchdog, /*budget_ms=*/120000);
  }
  if (http_enabled) {
    std::string error;
    if (!introspection.start(http_port, &error)) {
      std::fprintf(stderr, "cannot start http server: %s\n", error.c_str());
      return 1;
    }
    util::log_info("introspection server listening",
                   {{"addr", "127.0.0.1"}, {"port", introspection.port()}});
    std::printf("http: listening on 127.0.0.1:%u\n",
                static_cast<unsigned>(introspection.port()));
    std::fflush(stdout);
  }

  std::ofstream jsonl;
  if (!metrics_jsonl.empty()) {
    jsonl.open(metrics_jsonl, std::ios::app);
    if (!jsonl) {
      std::fprintf(stderr, "cannot open %s\n", metrics_jsonl.c_str());
      return 1;
    }
  }

  analysis::RunnerConfig runner_config;
  if (batch_size > 0) runner_config.ingest_batch = batch_size;
  analysis::BinnedRunner runner(engine, nullptr, runner_config);
  core::Snapshot last;
  std::uint64_t bins_seen = 0;
  runner.on_snapshot = [&](util::Timestamp ts, const core::Snapshot& snap,
                           const core::LpmTable& table) {
    std::uint64_t classified = 0;
    for (const auto& row : snap) classified += row.classified ? 1 : 0;
    std::printf("snapshot %s: %zu ranges, %llu classified, LPM size %zu\n",
                util::format_sim_time(ts).c_str(), snap.size(),
                static_cast<unsigned long long>(classified), table.size());
    last = snap;
    // Engine snapshot at the bin cadence: the callback runs with the
    // engine quiescent at the bin boundary, exactly the warm-restart cut
    // point the runner's snapshot_clock() describes.
    if (!snapshot_out.empty() && ++bins_seen % snapshot_every == 0) {
      const auto t0 = std::chrono::steady_clock::now();
      try {
        const std::string data =
            core::save_snapshot(engine, runner.snapshot_clock(ts));
        util::write_file_atomic(snapshot_out, data);
        const double secs =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        snapshots.record_save(data.size(), secs, ts);
        util::log_info("wrote engine snapshot",
                       {{"file", snapshot_out},
                        {"bytes", data.size()},
                        {"seconds", secs}});
      } catch (const util::SnapshotError& e) {
        snapshots.record_error(e.what());
        util::log_error("snapshot save failed",
                        {{"file", snapshot_out}, {"error", e.what()}});
      }
    }
  };
  runner.on_metrics = [&](util::Timestamp ts,
                          const obs::MetricsRegistry& reg) {
    // Publish perf/lock/thread gauges first so the same TSDB bin carries
    // them (the health rules read ipd_perf_* / ipd_lock_* / ipd_thread_*
    // from the store).
    if (perf) perf->publish(registry);
    obs::publish_lock_metrics(registry);
    obs::publish_thread_metrics(obs::sample_process_threads(), registry);
    snapshots.update_age(ts);
    timeseries.ingest(reg, ts);
    health.evaluate(ts);
    if (jsonl.is_open()) jsonl << obs::to_json_line(reg, ts);
  };
  // Warm restart: swap in the snapshot's engine state, resume the donor's
  // cycle/snapshot clock, and skip records the donor had already ingested
  // (everything older than the snapshot's bin boundary). Fail-closed: any
  // snapshot defect aborts the run with the engine untouched.
  std::size_t first_record = 0;
  if (!restore_path.empty()) {
    const auto t0 = std::chrono::steady_clock::now();
    core::SnapshotClock clock;
    std::size_t snapshot_bytes = 0;
    try {
      const std::string data = util::read_file(restore_path);
      snapshot_bytes = data.size();
      const std::lock_guard<obs::InstrumentedMutex> lock(engine_mutex);
      clock = core::restore_snapshot(engine, data);
    } catch (const util::SnapshotError& e) {
      snapshots.record_error(e.what());
      std::fprintf(stderr, "cannot restore %s: %s\n", restore_path.c_str(),
                   e.what());
      return 1;
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    runner.resume(clock);
    // Seed the final Table-3 dump from the restored engine so a run that
    // replays nothing new (restore at end-of-trace) still reports the
    // snapshot's classified ranges rather than an empty table.
    last = core::take_snapshot(engine, clock.saved_at);
    while (first_record < records.size() &&
           records[first_record].ts < clock.saved_at) {
      ++first_record;
    }
    const auto restored = engine.stats();
    snapshots.record_restore(snapshot_bytes, secs, clock.saved_at);
    util::log_info("restored engine snapshot",
                   {{"file", restore_path},
                    {"saved_at", clock.saved_at},
                    {"next_cycle", clock.next_cycle},
                    {"flows_restored", restored.flows_ingested},
                    {"records_skipped", first_record},
                    {"seconds", secs}});
    std::printf("restored snapshot %s at %s (%llu flows, skipping %zu "
                "already-ingested records)\n",
                restore_path.c_str(),
                util::format_sim_time(clock.saved_at).c_str(),
                static_cast<unsigned long long>(restored.flows_ingested),
                first_record);
  }

  obs::CpuProfiler profiler(obs::CpuProfilerConfig{.hz = profile_hz});
  if (!profile_out.empty()) {
    std::string error;
    if (!profiler.start(&error)) {
      std::fprintf(stderr, "cannot start profiler: %s\n", error.c_str());
      return 1;
    }
  }
  constexpr std::size_t kIngestBatch = 4096;
  for (std::size_t i = first_record; i < records.size(); i += kIngestBatch) {
    const std::size_t end = std::min(i + kIngestBatch, records.size());
    const std::lock_guard<obs::InstrumentedMutex> lock(engine_mutex);
    for (std::size_t j = i; j < end; ++j) runner.offer(records[j]);
  }
  {
    const std::lock_guard<obs::InstrumentedMutex> lock(engine_mutex);
    runner.finish();
  }

  if (force_stall_ms > 0) {
    // Deliberately wedge a heartbeat: beat once, then go quiet past the
    // budget. The watchdog must detect the miss and capture this thread's
    // stack — the end-to-end proof the stall path works.
    const obs::Watchdog::TaskId wedged =
        watchdog.register_task("forced.stall", force_stall_ms);
    watchdog.beat(wedged);
    const std::uint64_t before = watchdog.stalls_total();
    // Wait for detection (budget + a few poll periods), then a grace loop
    // for slow sanitizer hosts.
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(force_stall_ms + 10000);
    while (watchdog.stalls_total() == before &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    watchdog.disarm(wedged);
    if (watchdog.stalls_total() == before) {
      std::fprintf(stderr, "forced stall was not detected\n");
      return 1;
    }
    std::printf("forced stall detected (%llu total)\n",
                static_cast<unsigned long long>(watchdog.stalls_total()));
  }

  if (!profile_out.empty()) {
    // Stop and write before any linger: smoke tests wait for this file,
    // and stopping frees the process-global profiler slot so a lingering
    // /profile request is not refused with 409.
    profiler.stop();
    std::ofstream out(profile_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", profile_out.c_str());
      return 1;
    }
    out << profiler.folded();
    std::printf("profile: %llu samples (%llu dropped) at %d Hz -> %s\n",
                static_cast<unsigned long long>(profiler.samples_captured()),
                static_cast<unsigned long long>(profiler.samples_dropped()),
                profile_hz, profile_out.c_str());
  }

  std::printf("\nfinal classified ranges (Table-3 format):\n");
  for (const auto& row : last) {
    if (row.classified) std::cout << core::format_row(row) << '\n';
  }
  const auto stats = engine.stats();
  std::printf("\n%llu flows ingested, %llu cycles, %llu classifications, "
              "%llu splits, %llu joins, %llu drops\n",
              static_cast<unsigned long long>(stats.flows_ingested),
              static_cast<unsigned long long>(stats.cycles_run),
              static_cast<unsigned long long>(stats.total_classifications),
              static_cast<unsigned long long>(stats.total_splits),
              static_cast<unsigned long long>(stats.total_joins),
              static_cast<unsigned long long>(stats.total_drops));

  const auto* cycle_hist = engine.metrics()->cycle_seconds;
  std::printf("cycle time p50=%.3f ms p95=%.3f ms p99=%.3f ms (n=%llu)\n",
              cycle_hist->quantile(0.50) * 1e3,
              cycle_hist->quantile(0.95) * 1e3,
              cycle_hist->quantile(0.99) * 1e3,
              static_cast<unsigned long long>(cycle_hist->count()));

  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", metrics_out.c_str());
      return 1;
    }
    out << obs::to_prometheus(registry);
    util::log_info("wrote metrics snapshot",
                   {{"file", metrics_out},
                    {"families", registry.family_count()},
                    {"instruments", registry.instrument_count()}});
  }

  std::printf("health: %s, %zu active alerts (%llu raised, %llu resolved), "
              "%zu series, %llu points\n",
              analysis::to_string(health.overall()),
              health.active_alerts().size(),
              static_cast<unsigned long long>(health.alerts_raised()),
              static_cast<unsigned long long>(health.alerts_resolved()),
              timeseries.series_count(),
              static_cast<unsigned long long>(timeseries.points_appended()));

  if (perf) {
    std::printf("perf counters: available=%d (errno=%d)\n",
                perf->available() ? 1 : 0, perf->open_errno());
    for (const auto& phase : perf->snapshot()) {
      std::printf(
          "  %-16s scopes=%llu task_clock=%.3f ms ipc=%.3f llc_miss=%.4f\n",
          phase.name.c_str(), static_cast<unsigned long long>(phase.scopes),
          static_cast<double>(phase[obs::PerfEvent::TaskClock]) * 1e-6,
          phase.ipc(), phase.llc_miss_rate());
    }
  }
  if (decision_log_enabled) {
    std::printf("decision log: %llu recorded, %zu held, %llu overwritten\n",
                static_cast<unsigned long long>(decision_log.total_recorded()),
                decision_log.size(),
                static_cast<unsigned long long>(decision_log.dropped()));
  }
  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", trace_out.c_str());
      return 1;
    }
    out << tracer.to_json();
    util::log_info("wrote flight-recorder trace",
                   {{"file", trace_out},
                    {"events", tracer.size()},
                    {"overwritten", tracer.dropped()}});
  }

  if (!flow_trace_out.empty()) {
    std::ofstream out(flow_trace_out);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", flow_trace_out.c_str());
      return 1;
    }
    const core::DecisionLog* dlog = observers.decisions;
    const auto journeys = flow_trace.journeys();
    for (const auto& journey : journeys) {
      out << analysis::flow_journey_json(journey, dlog) << '\n';
    }
    std::printf("flow trace: %zu journeys (%llu sampled, %llu evicted, "
                "period 1/%llu) -> %s\n",
                journeys.size(),
                static_cast<unsigned long long>(flow_trace.flows_sampled()),
                static_cast<unsigned long long>(flow_trace.journeys_evicted()),
                static_cast<unsigned long long>(flow_trace.sample_period()),
                flow_trace_out.c_str());
    util::log_info("wrote flow journeys",
                   {{"file", flow_trace_out},
                    {"journeys", journeys.size()},
                    {"hops", flow_trace.hops_recorded()}});
  }

  if (http_enabled && linger_s > 0) {
    std::printf("lingering for %lds (http on 127.0.0.1:%u)\n", linger_s,
                static_cast<unsigned>(introspection.port()));
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::seconds(linger_s));
  }
  introspection.stop();
  obs::unbind_log_drop_metrics();
  return 0;
}
