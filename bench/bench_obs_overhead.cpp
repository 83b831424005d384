// Observability overhead: every <= 3% budget, measured one way.
//
// §5.7 runs IPD's core as a single-core process, so each observability
// layer holds a <= 3% budget on the path it rides. paired() measures each
// one: kPairs interleaved pairs of sides A (baseline) and B (baseline plus
// the layer), order alternating AB, BA, ...; every side builds and
// attaches a fresh instance (an engine with its observers, or a mutex)
// outside its timed region, and the stage-1 and lock sides warm it there
// too (the end-to-end sides start cold, as a deployment does). A pair's
// overhead is (t_b - t_a) / t_a; the report is the median over pairs with
// a 95% percentile-bootstrap CI (analysis::median_ci, fixed seed), and a
// budget gates the CI's upper bound, overhead.<name>.ci_hi. The A/A
// control (metrics vs metrics) is reported, not gated: it shows the noise
// floor beside every gate.
//
// Stage-1 sides time apply_batch over 4096-row batches built once; the
// end-to-end sides replay the trace through analysis::BinnedRunner, the
// deployment loop; the lock sides time std::mutex vs obs::InstrumentedMutex
// around a 128-add section. A contended two-thread shape and the health
// layer's per-snapshot micro-costs are reported alongside. Results land
// in BENCH_obs_overhead.json for tools/bench_check.py.
#include "bench_common.hpp"

#include <array>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "analysis/health.hpp"
#include "analysis/stats.hpp"
#include "core/decision_log.hpp"
#include "obs/cpu_profiler.hpp"
#include "obs/flow_trace.hpp"
#include "obs/lock_stats.hpp"
#include "obs/perf_counters.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

using namespace ipd;

namespace {

constexpr int kPairs = 20;            // paired rounds per comparison
constexpr int kPasses = 4;            // timed apply_batch passes per side
constexpr std::size_t kBatch = 4096;  // BinnedRunner's ingest batch
constexpr double kBudgetPct = 3.0;
constexpr int kProfilerHz = 97;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

unsigned long long u(std::uint64_t v) { return v; }

// ---------------------------------------------------------------- input --

struct Input {
  core::IpdParams params;
  std::vector<netflow::FlowRecord> trace;  // 10 simulated minutes
  std::vector<netflow::FlowBatch> batches;
};

Input make_input() {
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute = 50000;
  Input in;
  in.params = workload::scaled_params(scenario);
  scenario.flows_per_minute =
      static_cast<std::uint64_t>(50000 * bench::bench_scale());
  workload::FlowGenerator gen(scenario);
  const util::Timestamp t0 = bench::kDay1 + 20 * util::kSecondsPerHour;
  gen.run(t0, t0 + 10 * 60,
          [&](const netflow::FlowRecord& r) { in.trace.push_back(r); });
  const std::span<const netflow::FlowRecord> all(in.trace);
  for (std::size_t i = 0; i < all.size(); i += kBatch) {
    netflow::append_records(in.batches.emplace_back(),
                            all.subspan(i, std::min(kBatch, all.size() - i)));
  }
  return in;
}

// ------------------------------------------------------------ the rig --

/// Which observers a side attaches.
struct Attach {
  bool metrics = false;
  bool tracer_and_log = false;    // obs::Tracer + core::DecisionLog
  std::uint64_t flow_period = 0;  // obs::FlowTracer period; 0: none
  bool perf = false;
  bool profiler = false;     // 97 Hz CPU profiler over the timed region
  bool tsdb_health = false;  // TSDB + health rules, cycle deltas
};

constexpr Attach kBare{};
constexpr Attach kMetrics{.metrics = true};
constexpr Attach kFlowDefault{.metrics = true, .flow_period = 65536};
constexpr Attach kFlow256{.metrics = true, .flow_period = 256};
constexpr Attach kFullObs{.metrics = true, .tracer_and_log = true};
constexpr Attach kFullPerf{
    .metrics = true, .tracer_and_log = true, .perf = true};
constexpr Attach kFullProfiled{.metrics = true,
                               .tracer_and_log = true,
                               .perf = true,
                               .profiler = true};
constexpr Attach kFullHealth{
    .metrics = true, .tracer_and_log = true, .tsdb_health = true};

/// One side's fresh engine and observers. The engine is declared last so
/// it is destroyed before anything it points at.
struct Rig {
  Attach attach;
  obs::MetricsRegistry registry;
  std::optional<core::DecisionLog> decision_log;
  std::optional<obs::Tracer> tracer;
  std::optional<obs::FlowTracer> flow;
  std::optional<obs::PerfCounters> perf;
  std::optional<obs::CpuProfiler> profiler;
  std::optional<core::CycleDeltaLog> cycle_deltas;
  std::optional<obs::TimeSeriesStore> tsdb;
  std::optional<analysis::HealthEngine> health;
  core::IpdEngine engine;

  Rig(const Attach& a, const core::IpdParams& params)
      : attach(a), engine(params) {
    core::EngineObservers observers;
    if (attach.metrics) observers.metrics = &registry;
    if (attach.tracer_and_log) {
      observers.decisions = &decision_log.emplace();
      observers.tracer = &tracer.emplace();
    }
    if (attach.flow_period != 0) {
      flow.emplace(obs::FlowTracerConfig{.sample_period = attach.flow_period});
      flow->bind_metrics(&registry);
      observers.flow_trace = &*flow;
    }
    if (attach.perf) observers.perf = &perf.emplace();
    if (attach.profiler) profiler.emplace(obs::CpuProfilerConfig{.hz = kProfilerHz});
    if (attach.tsdb_health) {
      observers.cycle_deltas = &cycle_deltas.emplace();
      health.emplace(tsdb.emplace());
      health->install_default_rules(params);
      health->attach_cycle_deltas(*cycle_deltas);
      health->bind_metrics(registry);
    }
    engine.observe(observers);
  }

  void feed(const std::vector<netflow::FlowBatch>& batches) {
    for (const netflow::FlowBatch& batch : batches) engine.apply_batch(batch);
  }
};

/// What the sides leave behind for the report's structural checks.
struct Totals {
  std::map<std::uint64_t, std::uint64_t> flows_sampled;  // by period
  bool perf_available = false;
  bool profiler_started = false;
  std::uint64_t profiler_samples = 0;
  std::uint64_t profiler_dropped = 0;

  void collect(const Rig& rig) {
    if (rig.flow) {
      flows_sampled[rig.attach.flow_period] += rig.flow->flows_sampled();
    }
    if (rig.perf) perf_available = rig.perf->available();
    if (rig.profiler) {
      profiler_samples += rig.profiler->samples_captured();
      profiler_dropped += rig.profiler->samples_dropped();
    }
  }
};

/// Stage-1 side: one untimed warm pass, then kPasses timed passes of
/// apply_batch, sampled by the rig's profiler if it has one.
double stage1_side(const Input& in, const Attach& attach, Totals& totals) {
  Rig rig(attach, in.params);
  rig.feed(in.batches);
  if (rig.profiler) {
    std::string error;
    totals.profiler_started = rig.profiler->start(&error);
    if (!error.empty()) std::printf("profiler: %s\n", error.c_str());
  }
  const auto t0 = Clock::now();
  for (int p = 0; p < kPasses; ++p) rig.feed(in.batches);
  const double s = seconds_since(t0);
  if (rig.profiler) rig.profiler->stop();
  totals.collect(rig);
  return s;
}

/// End-to-end side: the trace replayed through a BinnedRunner (cycles
/// every t, snapshot + LPM build + on_metrics every 5 minutes) on a fresh
/// engine, as a deployment starts one.
double e2e_side(const Input& in, const Attach& attach, Totals& totals) {
  Rig rig(attach, in.params);
  analysis::BinnedRunner runner(rig.engine, nullptr);
  if (rig.health) {
    runner.on_metrics = [&rig](util::Timestamp ts,
                               const obs::MetricsRegistry& registry) {
      rig.tsdb->ingest(registry, ts);
      rig.health->evaluate(ts);
    };
  }
  const auto t0 = Clock::now();
  for (const netflow::FlowRecord& r : in.trace) runner.offer(r);
  runner.finish();
  const double s = seconds_since(t0);
  totals.collect(rig);
  return s;
}

// ------------------------------------------------------------- locks --

/// The guarded work: 128 dependent adds, roughly one stage-1 bucket's
/// worth of counter updates. Namespace scope, so the stores stay live
/// across the opaque lock calls.
constexpr std::size_t kSectionWork = 128;
alignas(64) std::array<std::uint64_t, kSectionWork> g_section{};

template <typename MutexT>
void lock_loop(MutexT& mutex, std::array<std::uint64_t, kSectionWork>& acc,
               std::uint64_t iters) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::lock_guard<MutexT> lock(mutex);
    for (std::size_t j = 0; j < kSectionWork; ++j) acc[j] += i + j;
  }
}

/// Lock side: warm a fresh mutex (the first acquisitions calibrate the
/// TSC and fault in the site), then time `iters` uncontended acquires.
template <typename MutexT>
double lock_side(MutexT& mutex, std::uint64_t iters) {
  lock_loop(mutex, g_section, iters / 10);
  const auto t0 = Clock::now();
  lock_loop(mutex, g_section, iters);
  return seconds_since(t0);
}

/// Runs the contended shape — two threads on one site; not a budget, but
/// the site must record contended acquisitions and wait samples — and
/// reports both lock sites as JSON.
std::string lock_sites_json(std::uint64_t contended_iters) {
  obs::InstrumentedMutex contended{"bench.contended"};
  const auto hammer = [&] {
    std::array<std::uint64_t, kSectionWork> local{};
    lock_loop(contended, local, contended_iters);
  };
  std::thread peer(hammer);
  hammer();
  peer.join();
  std::string out;
  for (const auto& [key, name] : {std::pair{"uncontended_site",
                                             "bench.uncontended"},
                                   std::pair{"contended_site",
                                             "bench.contended"}}) {
    obs::LockSite::Snapshot site{};
    for (auto& s : obs::LockRegistry::instance().snapshot()) {
      if (s.name == name) site = s;
    }
    std::printf("lock site %-18s %llu acquisitions, %llu contended, %llu "
                "wait / %llu hold samples, wait p99 %.1f us\n",
                name, u(site.acquisitions), u(site.contended),
                u(site.wait_samples), u(site.hold_samples),
                site.wait_p99_s * 1e6);
    out += util::format(
        "%s\"%s\":{\"acquisitions\":%llu,\"contended\":%llu,"
        "\"wait_samples\":%llu,\"hold_samples\":%llu,\"wait_p99_us\":%.4g}",
        out.empty() ? "" : ",", key, u(site.acquisitions),
        u(site.contended), u(site.wait_samples), u(site.hold_samples),
        site.wait_p99_s * 1e6);
  }
  return out;
}

// ------------------------------------------------------------ paired --

struct Overhead {
  std::string name;
  double budget_pct = 0.0;        // <= 0: reported, not gated
  analysis::MedianCi pct;         // over pairs_pct
  std::vector<double> pairs_pct;  // (t_b - t_a) / t_a per pair, in percent
  double a_per_s = 0.0;           // median rate of the A / B sides
  double b_per_s = 0.0;

  bool gated() const noexcept { return budget_pct > 0.0; }
  bool pass() const noexcept { return pct.hi <= budget_pct; }
};

/// kPairs interleaved pairs of side(false) = A and side(true) = B; each
/// call returns its timed seconds over `units` operations.
template <typename Side>
Overhead paired(std::string name, double budget_pct, double units,
                Side&& side) {
  std::vector<double> pct, a_rates, b_rates;
  for (int i = 0; i < kPairs; ++i) {
    const bool a_first = i % 2 == 0;
    const double t_first = side(!a_first);
    const double t_second = side(a_first);
    const double t_a = a_first ? t_first : t_second;
    const double t_b = a_first ? t_second : t_first;
    pct.push_back((t_b - t_a) / t_a * 100.0);
    a_rates.push_back(units / t_a);
    b_rates.push_back(units / t_b);
  }
  Overhead out{std::move(name), budget_pct, analysis::median_ci(pct),
               std::move(pct), analysis::median(a_rates),
               analysis::median(b_rates)};
  bench::print_result(
      out.name, out.gated() ? util::format("<= %g%%", budget_pct) : "-",
      util::format("median %+.2f%% CI [%+.2f, %+.2f]%% %s (A %.4g/s, "
                   "B %.4g/s)",
                   out.pct.median, out.pct.lo, out.pct.hi,
                   out.gated() ? (out.pass() ? "pass" : "FAIL") : "reported",
                   out.a_per_s, out.b_per_s));
  return out;
}

std::string overhead_json(const std::vector<Overhead>& overheads) {
  std::string out;
  for (const Overhead& o : overheads) {
    out += util::format(
        "%s\"%s\":{\"median\":%.4g,\"ci_lo\":%.4g,\"ci_hi\":%.4g,"
        "\"a_per_s\":%.6g,\"b_per_s\":%.6g,\"pairs_pct\":[",
        out.empty() ? "" : ",", o.name.c_str(), o.pct.median, o.pct.lo,
        o.pct.hi, o.a_per_s, o.b_per_s);
    for (std::size_t i = 0; i < o.pairs_pct.size(); ++i) {
      out += util::format(i == 0 ? "%.4g" : ",%.4g", o.pairs_pct[i]);
    }
    out += ']';
    if (o.gated()) {
      out += util::format(",\"budget_pct\":%g,\"pass\":%s", o.budget_pct,
                          o.pass() ? "true" : "false");
    }
    out += '}';
  }
  return "{" + out + "}";
}

// ------------------------------------------------------------ health --

/// Microseconds per call of `fn(i)`, over `iters` calls.
template <typename Fn>
double us_per_call(int iters, Fn&& fn) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) fn(static_cast<util::Timestamp>(i));
  return seconds_since(t0) / iters * 1e6;
}

/// TSDB ingest and health evaluation at the 5-minute snapshot cadence,
/// over a registry warmed by replaying the trace through BinnedRunner.
std::string health_json(const Input& in) {
  core::IpdEngine engine(in.params);
  obs::MetricsRegistry registry;
  engine.observe({.metrics = &registry});
  analysis::BinnedRunner runner(engine, nullptr);
  for (const netflow::FlowRecord& r : in.trace) runner.offer(r);
  runner.finish();
  engine.flush_ingest_metrics();

  obs::TimeSeriesStore store;
  const std::size_t points = store.ingest(registry, 1);
  const double ingest_us = us_per_call(
      2000, [&](util::Timestamp i) { store.ingest(registry, 2 + i); });
  analysis::HealthEngine health(store);
  health.install_default_rules(in.params);
  core::CycleDeltaLog deltas;
  health.attach_cycle_deltas(deltas);
  health.bind_metrics(registry);
  const double eval_us = us_per_call(
      2000, [&](util::Timestamp i) { health.evaluate(10000 + i); });
  // Shift-rule path: drain and match a busy cycle's 8 transitions.
  const double shift_us = us_per_call(500, [&](util::Timestamp i) {
    for (int k = 0; k < 8; ++k) {
      core::RangeTransition t;
      t.ts = 200000 + i;
      t.kind = (k & 1) ? core::RangeTransition::Kind::Classify
                       : core::RangeTransition::Kind::Demote;
      t.prefix = net::Prefix::from_string(util::format("10.%d.0.0/16", k));
      t.ingress = core::IngressId(topology::LinkId{1, 1});
      t.share = 0.9;
      deltas.push(t);
    }
    health.evaluate(200000 + i);
  });

  const double pct_of_cadence = (ingest_us + eval_us) / (300.0 * 1e6) * 100.0;
  std::printf("health: %zu series, %zu points; TSDB ingest %.2f us/snapshot, "
              "evaluate %.2f us, with 8 transitions %.2f us\n",
              store.series_count(), points, ingest_us, eval_us, shift_us);
  bench::print_result("snapshot-path cost vs 5-min cadence", "<= 3%",
                      util::format("%.6f%%", pct_of_cadence));
  return util::format(
      "{\"series\":%zu,\"points_per_snapshot\":%zu,"
      "\"ingest_us_per_snapshot\":%.4g,\"evaluate_us_per_pass\":%.4g,"
      "\"evaluate_with_transitions_us\":%.4g,\"tsdb_memory_bytes\":%zu,"
      "\"pct_of_cadence\":%.6g}",
      store.series_count(), points, ingest_us, eval_us, shift_us,
      store.memory_bytes(), pct_of_cadence);
}

}  // namespace

int main() {
  bench::print_header(
      "Observability overhead (paired rounds, median + 95% bootstrap CI)",
      "every observability layer adds <= 3% to the path it rides");
  const auto wall0 = Clock::now();
  const Input in = make_input();
  std::printf("trace: %zu records in %zu batches; %d pairs, %d timed "
              "passes per stage-1 side\n",
              in.trace.size(), in.batches.size(), kPairs, kPasses);

  Totals totals;
  const auto sides = [&](auto side_fn, const Attach& a, const Attach& b) {
    return [&, side_fn, a, b](bool side_b) {
      return side_fn(in, side_b ? b : a, totals);
    };
  };
  const double s1 = static_cast<double>(in.trace.size()) * kPasses;
  const double e2e = static_cast<double>(in.trace.size());
  std::vector<Overhead> overheads;
  overheads.push_back(paired("aa_control", 0.0, s1,
                             sides(stage1_side, kMetrics, kMetrics)));
  overheads.push_back(
      paired("metrics", 0.0, s1, sides(stage1_side, kBare, kMetrics)));
  overheads.push_back(paired("tracer_decision_log", kBudgetPct, s1,
                             sides(stage1_side, kMetrics, kFullObs)));
  overheads.push_back(paired("flow_trace_default", kBudgetPct, s1,
                             sides(stage1_side, kMetrics, kFlowDefault)));
  overheads.push_back(paired("flow_trace_256", 2 * kBudgetPct, s1,
                             sides(stage1_side, kMetrics, kFlow256)));
  overheads.push_back(paired("perf_counters", kBudgetPct, s1,
                             sides(stage1_side, kFullObs, kFullPerf)));
  overheads.push_back(paired("perf_counters_profiler", kBudgetPct, s1,
                             sides(stage1_side, kFullObs, kFullProfiled)));
  overheads.push_back(paired("tsdb_health_e2e", kBudgetPct, e2e,
                             sides(e2e_side, kFullObs, kFullHealth)));
  overheads.push_back(paired("flow_trace_freshness_e2e", kBudgetPct, e2e,
                             sides(e2e_side, kMetrics, kFlowDefault)));
  const auto lock_iters = static_cast<std::uint64_t>(
      std::max(1.0, 1.5e6 * bench::bench_scale()));
  overheads.push_back(paired(
      "lock_uncontended", kBudgetPct, static_cast<double>(lock_iters),
      [&](bool side_b) {
        if (side_b) {
          obs::InstrumentedMutex mutex{"bench.uncontended"};
          return lock_side(mutex, lock_iters);
        }
        std::mutex mutex;
        return lock_side(mutex, lock_iters);
      }));
  const std::string locks = lock_sites_json(lock_iters / 4);
  std::printf("profiler: %llu samples, %llu dropped; flow tracer sampled "
              "%llu (1/65536), %llu (1/256)\n",
              u(totals.profiler_samples), u(totals.profiler_dropped),
              u(totals.flows_sampled[65536]), u(totals.flows_sampled[256]));
  const std::string health = health_json(in);
  const double wall_s = seconds_since(wall0);
  std::printf("wall time: %.1f s\n", wall_s);

  bench::write_json_report(
      "obs_overhead",
      util::format(
          "{\"bench\":\"obs_overhead\",\"trace_records\":%zu,"
          "\"batch_size\":%zu,\"pairs\":%d,\"passes\":%d,"
          "\"budget_pct\":%g,\"wall_s\":%.4g,"
          "\"overhead\":%s,"
          "\"sampled\":{\"default_period\":%llu,\"period_256\":%llu},"
          "\"perf\":{\"available\":%s},"
          "\"profiler\":{\"started\":%s,\"hz\":%d,\"samples\":%llu,"
          "\"dropped\":%llu},"
          "\"lock\":{\"section_work\":%zu,\"iters\":%llu,%s},"
          "\"health\":%s}",
          in.trace.size(), kBatch, kPairs, kPasses, kBudgetPct,
          wall_s, overhead_json(overheads).c_str(),
          u(totals.flows_sampled[65536]), u(totals.flows_sampled[256]),
          totals.perf_available ? "true" : "false",
          totals.profiler_started ? "true" : "false", kProfilerHz,
          u(totals.profiler_samples), u(totals.profiler_dropped),
          kSectionWork, u(lock_iters), locks.c_str(), health.c_str()));
  return 0;
}
