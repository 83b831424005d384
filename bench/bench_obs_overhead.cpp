// Observability overhead on the stage-1 ingest path and end to end.
//
// The decision log and the tracer are stage-2-only by design: the per-flow
// ingest path must not grow by more than 3% when both are attached (the
// acceptance budget; the metrics registry separately holds a < 2% budget,
// see bench_micro_engine). This bench measures stage-1 throughput in three
// configurations — bare engine, +metrics, +metrics+tracer+decision-log —
// and additionally the *end-to-end* cost (ingest + cycle path at the
// standard 60 s cycle / 5 min snapshot cadence) of the embedded TSDB +
// health-rule evaluation on top of full observability, under the same
// <= 3% budget. Results land in BENCH_obs_overhead.json for CI.
#include "bench_common.hpp"

#include <chrono>

#include "analysis/health.hpp"
#include "core/decision_log.hpp"
#include "core/engine.hpp"
#include "obs/cpu_profiler.hpp"
#include "obs/perf_counters.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

using namespace ipd;

namespace {

std::vector<netflow::FlowRecord> make_trace() {
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute =
      static_cast<std::uint64_t>(50000 * bench::bench_scale());
  workload::FlowGenerator gen(scenario);
  std::vector<netflow::FlowRecord> out;
  const util::Timestamp t0 = bench::kDay1 + 20 * util::kSecondsPerHour;
  gen.run(t0, t0 + 10 * 60,
          [&](const netflow::FlowRecord& r) { out.push_back(r); });
  return out;
}

core::IpdParams bench_params() {
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute = 50000;
  return workload::scaled_params(scenario);
}

/// Flows/s for `passes` round-robin passes over the trace; best of
/// `rounds` fresh engines (min wall time) to shed scheduler noise.
template <typename Attach>
double measure(const std::vector<netflow::FlowRecord>& trace, int rounds,
               int passes, Attach&& attach) {
  double best = 0.0;
  for (int round = 0; round < rounds; ++round) {
    core::IpdEngine engine(bench_params());
    attach(engine);
    // Warm pass: fault in the trie and caches outside the timed window.
    for (const auto& r : trace) engine.ingest(r);
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < passes; ++p) {
      for (const auto& r : trace) engine.ingest(r);
    }
    const double s = std::chrono::duration_cast<std::chrono::duration<double>>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    const double rate =
        s > 0.0 ? static_cast<double>(trace.size()) * passes / s : 0.0;
    best = std::max(best, rate);
  }
  return best;
}

/// Like measure(), but feeding apply_batch() in runner-sized chunks — the
/// granularity at which the engine's stage1.ingest scope charges its perf
/// phase (two read() syscalls per batch, not per flow). The perf/profiler
/// overhead comparison must run on this path or it would measure nothing.
template <typename Attach>
double measure_batched(const std::vector<netflow::FlowRecord>& trace,
                       int rounds, int passes, Attach&& attach) {
  constexpr std::size_t kBatch = 4096;
  // SoA batches built once, outside every timed pass.
  std::vector<netflow::FlowBatch> batches;
  for (std::size_t i = 0; i < trace.size(); i += kBatch) {
    netflow::append_records(
        batches.emplace_back(),
        std::span<const netflow::FlowRecord>(trace).subspan(
            i, std::min(kBatch, trace.size() - i)));
  }
  double best = 0.0;
  for (int round = 0; round < rounds; ++round) {
    core::IpdEngine engine(bench_params());
    attach(engine);
    const auto feed = [&] {
      for (const netflow::FlowBatch& batch : batches) engine.apply_batch(batch);
    };
    feed();  // warm pass, untimed
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < passes; ++p) feed();
    const double s = std::chrono::duration_cast<std::chrono::duration<double>>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    const double rate =
        s > 0.0 ? static_cast<double>(trace.size()) * passes / s : 0.0;
    best = std::max(best, rate);
  }
  return best;
}

/// End-to-end flows/s: the trace replayed in simulated-time order with
/// run_cycle every t seconds and a snapshot hook every 5 minutes — the
/// runner's loop shape. Best of `rounds` fresh engines.
template <typename Attach, typename Snapshot>
double measure_e2e(const std::vector<netflow::FlowRecord>& trace, int rounds,
                   Attach&& attach, Snapshot&& snapshot) {
  const core::IpdParams params = bench_params();
  const util::Duration snap_every = 5 * util::kSecondsPerMinute;
  double best = 0.0;
  for (int round = 0; round < rounds; ++round) {
    core::IpdEngine engine(params);
    attach(engine);
    const auto t0 = std::chrono::steady_clock::now();
    util::Timestamp next_cycle = trace.front().ts + params.t;
    util::Timestamp next_snap = trace.front().ts + snap_every;
    for (const auto& r : trace) {
      while (r.ts >= next_cycle) {
        engine.run_cycle(next_cycle);
        next_cycle += params.t;
      }
      while (r.ts >= next_snap) {
        snapshot(engine, next_snap);
        next_snap += snap_every;
      }
      engine.ingest(r);
    }
    engine.run_cycle(next_cycle);
    snapshot(engine, next_snap);
    const double s = std::chrono::duration_cast<std::chrono::duration<double>>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    const double rate =
        s > 0.0 ? static_cast<double>(trace.size()) / s : 0.0;
    best = std::max(best, rate);
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header(
      "Stage-1 observability overhead",
      "tracing + decision log add <= 3% to the per-flow ingest cost");

  const auto trace = make_trace();
  const int rounds = 3;
  const int passes = 4;

  const double bare =
      measure(trace, rounds, passes, [](core::IpdEngine&) {});

  obs::MetricsRegistry registry;
  const double with_metrics =
      measure(trace, rounds, passes,
              [&](core::IpdEngine& e) { e.attach_metrics(registry); });

  obs::MetricsRegistry registry_full;
  core::DecisionLog decision_log;
  obs::Tracer tracer;
  const double full_obs = measure(trace, rounds, passes, [&](core::IpdEngine& e) {
    e.attach_metrics(registry_full);
    e.attach_decision_log(decision_log);
    e.attach_tracer(tracer);
  });

  const double overhead_vs_metrics =
      with_metrics > 0.0 ? (with_metrics - full_obs) / with_metrics * 100.0
                         : 0.0;
  const double overhead_vs_bare =
      bare > 0.0 ? (bare - full_obs) / bare * 100.0 : 0.0;

  // End to end: full observability with and without the TSDB + health
  // engine riding the 5-minute snapshot hook and the engine's cycle-delta
  // log. The delta is what PR 3 added to the steady-state loop.
  obs::MetricsRegistry registry_a;
  core::DecisionLog log_a;
  obs::Tracer tracer_a;
  const double e2e_base = measure_e2e(
      trace, rounds,
      [&](core::IpdEngine& e) {
        e.attach_metrics(registry_a);
        e.attach_decision_log(log_a);
        e.attach_tracer(tracer_a);
      },
      [&](core::IpdEngine& e, util::Timestamp) {
        e.flush_ingest_metrics();
      });

  obs::MetricsRegistry registry_b;
  core::DecisionLog log_b;
  obs::Tracer tracer_b;
  core::CycleDeltaLog cycle_deltas;
  // Fresh store + health engine per round: each round replays the same
  // simulated timestamps, which a shared store would reject as stale.
  std::unique_ptr<obs::TimeSeriesStore> timeseries;
  std::unique_ptr<analysis::HealthEngine> health;
  const double e2e_health = measure_e2e(
      trace, rounds,
      [&](core::IpdEngine& e) {
        timeseries = std::make_unique<obs::TimeSeriesStore>();
        health = std::make_unique<analysis::HealthEngine>(*timeseries);
        health->install_default_rules(bench_params());
        health->attach_cycle_deltas(cycle_deltas);
        health->bind_metrics(registry_b);
        e.attach_metrics(registry_b);
        e.attach_decision_log(log_b);
        e.attach_tracer(tracer_b);
        e.attach_cycle_deltas(cycle_deltas);
      },
      [&](core::IpdEngine& e, util::Timestamp ts) {
        e.flush_ingest_metrics();
        timeseries->ingest(registry_b, ts);
        health->evaluate(ts);
      });

  const double overhead_e2e =
      e2e_base > 0.0 ? (e2e_base - e2e_health) / e2e_base * 100.0 : 0.0;

  // Hardware counter + profiler overhead, on the batched ingest path
  // (stage1.ingest scope granularity). Three configurations under full
  // observability: no perf, +perf counters, +perf counters with the 97 Hz
  // sampling profiler live for the whole measurement. Both deltas share
  // the <= 3% budget.
  obs::MetricsRegistry registry_p0;
  core::DecisionLog log_p0;
  obs::Tracer tracer_p0;
  const double batched_base =
      measure_batched(trace, rounds, passes, [&](core::IpdEngine& e) {
        e.attach_metrics(registry_p0);
        e.attach_decision_log(log_p0);
        e.attach_tracer(tracer_p0);
      });

  obs::MetricsRegistry registry_p1;
  core::DecisionLog log_p1;
  obs::Tracer tracer_p1;
  obs::PerfCounters perf_counters;
  const double batched_perf =
      measure_batched(trace, rounds, passes, [&](core::IpdEngine& e) {
        e.attach_metrics(registry_p1);
        e.attach_decision_log(log_p1);
        e.attach_tracer(tracer_p1);
        e.attach_perf(perf_counters);
      });

  obs::MetricsRegistry registry_p2;
  core::DecisionLog log_p2;
  obs::Tracer tracer_p2;
  obs::PerfCounters perf_counters2;
  obs::CpuProfiler profiler(obs::CpuProfilerConfig{.hz = 97});
  std::string profiler_error;
  const bool profiler_ok = profiler.start(&profiler_error);
  if (!profiler_ok) {
    std::printf("profiler unavailable: %s\n", profiler_error.c_str());
  }
  const double batched_both =
      measure_batched(trace, rounds, passes, [&](core::IpdEngine& e) {
        e.attach_metrics(registry_p2);
        e.attach_decision_log(log_p2);
        e.attach_tracer(tracer_p2);
        e.attach_perf(perf_counters2);
      });
  profiler.stop();

  const double overhead_perf =
      batched_base > 0.0 ? (batched_base - batched_perf) / batched_base * 100.0
                         : 0.0;
  const double overhead_perf_profiler =
      batched_base > 0.0 ? (batched_base - batched_both) / batched_base * 100.0
                         : 0.0;

  std::printf("stage-1 throughput (best of %d rounds, %d passes):\n", rounds,
              passes);
  std::printf("  bare engine               %12.0f flows/s\n", bare);
  std::printf("  + metrics                 %12.0f flows/s\n", with_metrics);
  std::printf("  + tracer + decision log   %12.0f flows/s\n", full_obs);
  bench::print_result(
      "tracing+decision-log overhead vs metrics-only", "<= 3%",
      util::format("%.2f%%", overhead_vs_metrics));

  std::printf("end-to-end throughput (ingest + cycles, best of %d rounds):\n",
              rounds);
  std::printf("  full observability        %12.0f flows/s\n", e2e_base);
  std::printf("  + TSDB + health engine    %12.0f flows/s\n", e2e_health);
  bench::print_result("TSDB+health end-to-end overhead", "<= 3%",
                      util::format("%.2f%%", overhead_e2e));

  std::printf(
      "batched ingest throughput (perf path, best of %d rounds, %d passes):\n",
      rounds, passes);
  std::printf("  full observability        %12.0f flows/s\n", batched_base);
  std::printf("  + perf counters           %12.0f flows/s (available=%d)\n",
              batched_perf, perf_counters.available() ? 1 : 0);
  std::printf("  + perf + 97 Hz profiler   %12.0f flows/s (samples=%llu)\n",
              batched_both,
              static_cast<unsigned long long>(profiler.samples_captured()));
  bench::print_result("perf-counter overhead", "<= 3%",
                      util::format("%.2f%%", overhead_perf));
  bench::print_result("perf-counter + profiler overhead", "<= 3%",
                      util::format("%.2f%%", overhead_perf_profiler));

  obs::PerfReading totals;
  perf_counters2.read_current(totals);
  bench::write_json_report(
      "perf_counters",
      util::format(
          "{\"bench\":\"perf_counters\",\"available\":%s,\"disabled\":%s,"
          "\"open_errno\":%d,"
          "\"events\":{\"task_clock\":%s,\"cycles\":%s,\"instructions\":%s,"
          "\"llc_loads\":%s,\"llc_misses\":%s,\"branch_misses\":%s},"
          "\"totals\":{\"task_clock_ns\":%llu,\"cycles\":%llu,"
          "\"instructions\":%llu},"
          "\"profiler\":{\"started\":%s,\"hz\":97,\"samples\":%llu,"
          "\"dropped\":%llu},"
          "\"throughput_flows_per_s\":{\"batched_base\":%.6g,"
          "\"batched_perf\":%.6g,\"batched_perf_profiler\":%.6g},"
          "\"overhead_pct\":{\"perf_counters\":%.4g,"
          "\"perf_counters_profiler\":%.4g},\"budget_pct\":3.0}",
          perf_counters2.available() ? "true" : "false",
          perf_counters2.disabled() ? "true" : "false",
          perf_counters2.open_errno(),
          perf_counters2.event_available(obs::PerfEvent::TaskClock) ? "true"
                                                                    : "false",
          perf_counters2.event_available(obs::PerfEvent::Cycles) ? "true"
                                                                 : "false",
          perf_counters2.event_available(obs::PerfEvent::Instructions)
              ? "true"
              : "false",
          perf_counters2.event_available(obs::PerfEvent::LlcLoads) ? "true"
                                                                   : "false",
          perf_counters2.event_available(obs::PerfEvent::LlcMisses) ? "true"
                                                                    : "false",
          perf_counters2.event_available(obs::PerfEvent::BranchMisses)
              ? "true"
              : "false",
          static_cast<unsigned long long>(
              totals[obs::PerfEvent::TaskClock]),
          static_cast<unsigned long long>(totals[obs::PerfEvent::Cycles]),
          static_cast<unsigned long long>(
              totals[obs::PerfEvent::Instructions]),
          profiler_ok ? "true" : "false",
          static_cast<unsigned long long>(profiler.samples_captured()),
          static_cast<unsigned long long>(profiler.samples_dropped()),
          batched_base, batched_perf, batched_both, overhead_perf,
          overhead_perf_profiler));

  bench::write_json_report(
      "obs_overhead",
      util::format(
          "{\"bench\":\"obs_overhead\",\"trace_records\":%zu,"
          "\"rounds\":%d,\"passes\":%d,"
          "\"throughput_flows_per_s\":{\"bare\":%.6g,\"metrics\":%.6g,"
          "\"full_observability\":%.6g,\"e2e_full_obs\":%.6g,"
          "\"e2e_tsdb_health\":%.6g},"
          "\"overhead_pct\":{\"tracing_decision_log_vs_metrics\":%.4g,"
          "\"full_vs_bare\":%.4g,\"tsdb_health_e2e\":%.4g,"
          "\"perf_counters\":%.4g,\"perf_counters_profiler\":%.4g},"
          "\"budget_pct\":3.0}",
          trace.size(), rounds, passes, bare, with_metrics, full_obs,
          e2e_base, e2e_health, overhead_vs_metrics, overhead_vs_bare,
          overhead_e2e, overhead_perf, overhead_perf_profiler));
  return 0;
}
