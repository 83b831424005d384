// Micro-costs of the embedded TSDB and the health/SLO engine.
//
// The steady-state loop pays for PR 3 in exactly two places: one
// TimeSeriesStore::ingest() per 5-minute snapshot, and one
// HealthEngine::evaluate() right after it. This bench populates a
// representative registry by streaming the standard synthetic scenario
// through an engine, then measures both calls in isolation —
// microseconds per snapshot, points per snapshot, and the combined cost
// as a fraction of the 5-minute cadence it rides (budget: the same 3%
// observability ceiling, which these costs undershoot by orders of
// magnitude). Results land in BENCH_health_overhead.json for CI.
#include "bench_common.hpp"

#include <chrono>

#include "analysis/health.hpp"
#include "core/decision_log.hpp"
#include "core/engine.hpp"
#include "obs/timeseries.hpp"
#include "util/strings.hpp"

using namespace ipd;

namespace {

/// Wall seconds for `fn()` run `iters` times.
template <typename Fn>
double timed(int iters, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn(i);
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  bench::print_header(
      "TSDB + health-engine overhead",
      "snapshot-cadence ingest + rule evaluation cost a negligible "
      "fraction of the 5-minute bin");

  // A registry shaped like a real run: stream 10 simulated minutes of the
  // standard scenario with metrics attached and cycles running.
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute =
      static_cast<std::uint64_t>(50000 * bench::bench_scale());
  workload::FlowGenerator gen(scenario);
  core::IpdEngine engine(workload::scaled_params(scenario));
  obs::MetricsRegistry registry;
  engine.attach_metrics(registry);
  const util::Timestamp t0 = bench::kDay1 + 20 * util::kSecondsPerHour;
  util::Timestamp next_cycle = t0 + 60;
  std::size_t records = 0;
  gen.run(t0, t0 + 10 * 60, [&](const netflow::FlowRecord& r) {
    while (r.ts >= next_cycle) {
      engine.run_cycle(next_cycle);
      next_cycle += 60;
    }
    engine.ingest(r);
    ++records;
  });
  engine.flush_ingest_metrics();

  // --- TSDB ingest: one call per 5-minute snapshot. -----------------------
  obs::TimeSeriesStore store;
  const std::size_t points_per_snapshot = store.ingest(registry, 1);
  const int ingest_iters = 2000;
  const double ingest_s = timed(ingest_iters, [&](int i) {
    store.ingest(registry, 2 + static_cast<util::Timestamp>(i));
  });
  const double ingest_us = ingest_s / ingest_iters * 1e6;

  // --- Health evaluation: default rules over the populated store. ---------
  analysis::HealthEngine health(store);
  health.install_default_rules(workload::scaled_params(scenario));
  core::CycleDeltaLog deltas;
  health.attach_cycle_deltas(deltas);
  health.bind_metrics(registry);
  const int eval_iters = 2000;
  const double eval_s = timed(eval_iters, [&](int i) {
    health.evaluate(10000 + static_cast<util::Timestamp>(i));
  });
  const double eval_us = eval_s / eval_iters * 1e6;

  // --- Shift-rule path: drain + match a cycle's worth of transitions. -----
  const int shift_iters = 500;
  const double shift_s = timed(shift_iters, [&](int i) {
    for (int k = 0; k < 8; ++k) {  // a busy cycle's delta volume
      core::RangeTransition t;
      t.ts = 200000 + i;
      t.kind = (k & 1) ? core::RangeTransition::Kind::Classify
                       : core::RangeTransition::Kind::Demote;
      t.prefix = net::Prefix::from_string(
          util::format("10.%d.0.0/16", k));
      t.ingress = core::IngressId(topology::LinkId{1, 1});
      t.share = 0.9;
      deltas.push(t);
    }
    health.evaluate(200000 + static_cast<util::Timestamp>(i));
  });
  const double shift_us = shift_s / shift_iters * 1e6;

  const double snapshot_us = ingest_us + eval_us;
  const double pct_of_cadence =
      snapshot_us / (5.0 * 60.0 * 1e6) * 100.0;

  std::printf("registry: %zu series -> %zu points per snapshot (%zu flow "
              "records warmed the engine)\n",
              store.series_count(), points_per_snapshot, records);
  std::printf("  TSDB ingest               %10.2f us/snapshot\n", ingest_us);
  std::printf("  health evaluate           %10.2f us/pass\n", eval_us);
  std::printf("  evaluate + 8 transitions  %10.2f us/pass\n", shift_us);
  std::printf("  TSDB memory               %10zu bytes\n",
              store.memory_bytes());
  bench::print_result("snapshot-path cost vs 5-min cadence", "<= 3%",
                      util::format("%.6f%%", pct_of_cadence));

  bench::write_json_report(
      "health_overhead",
      util::format(
          "{\"bench\":\"health_overhead\",\"series\":%zu,"
          "\"points_per_snapshot\":%zu,"
          "\"ingest_us_per_snapshot\":%.4g,\"evaluate_us_per_pass\":%.4g,"
          "\"evaluate_with_transitions_us\":%.4g,"
          "\"snapshot_us_total\":%.4g,\"tsdb_memory_bytes\":%zu,"
          "\"pct_of_cadence\":%.6g,\"budget_pct\":3.0}",
          store.series_count(), points_per_snapshot, ingest_us, eval_us,
          shift_us, snapshot_us, store.memory_bytes(), pct_of_cadence));
  return 0;
}
