#include "analysis/paramstudy.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "analysis/runner.hpp"
#include "analysis/stability.hpp"
#include "analysis/stats.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"

namespace ipd::analysis {

ParamStudyMetrics evaluate_params(const std::vector<netflow::FlowRecord>& trace,
                                  const topology::Topology& topo,
                                  const workload::Universe& universe,
                                  const core::IpdParams& params,
                                  std::size_t accuracy_skip_bins) {
  ParamStudyMetrics metrics;
  metrics.params = params;

  core::IpdEngine engine(params);
  // The resource metrics below (cycle time percentiles, per-phase
  // breakdown, honest memory totals) come from the metrics subsystem.
  obs::MetricsRegistry registry;
  engine.observe({.metrics = &registry});
  ValidationRun validation(topo, universe);
  BinnedRunner runner(engine, &validation);
  StabilityTracker stability;
  util::Timestamp last_ts = 0;
  std::uint64_t final_classified = 0;
  double sum_ranges = 0.0;
  std::uint64_t n_snapshots = 0;
  runner.on_snapshot = [&](util::Timestamp ts, const core::Snapshot& snapshot,
                           const core::LpmTable& table) {
    stability.observe(snapshot);
    last_ts = ts;
    final_classified = table.size();
    sum_ranges += static_cast<double>(snapshot.size());
    ++n_snapshots;
  };

  for (const auto& record : trace) runner.offer(record);
  runner.finish();
  stability.finish(last_ts);

  // Accuracy: mean of per-bin flow accuracy.
  double acc_all = 0.0, acc_top5 = 0.0;
  std::size_t bins = 0;
  for (std::size_t i = accuracy_skip_bins; i < validation.bins().size(); ++i) {
    const auto& bin = validation.bins()[i];
    if (bin.all.total == 0) continue;
    acc_all += bin.all.accuracy();
    acc_top5 += bin.top5.total ? bin.top5.accuracy() : 0.0;
    ++bins;
  }
  if (bins) {
    metrics.accuracy_all = acc_all / static_cast<double>(bins);
    metrics.accuracy_top5 = acc_top5 / static_cast<double>(bins);
  }

  // Stability metrics.
  const auto& durations = stability.durations();
  if (!durations.empty()) {
    Cdf cdf{std::vector<double>(durations)};
    metrics.ks_distance = best_fit_ks(cdf);
    metrics.mean_stability_s = cdf.mean();
  }

  // Resources.
  double cycle_us = 0.0;
  std::uint64_t peak_mem = 0;
  std::array<double, core::kNumCyclePhases> phase_us{};
  for (const auto& cycle : runner.cycles()) {
    cycle_us += static_cast<double>(cycle.cycle_micros);
    peak_mem = std::max(peak_mem, cycle.memory_bytes);
    for (std::size_t p = 0; p < core::kNumCyclePhases; ++p) {
      phase_us[p] += static_cast<double>(cycle.phase_micros[p]);
    }
  }
  if (!runner.cycles().empty()) {
    const auto n = static_cast<double>(runner.cycles().size());
    metrics.mean_cycle_ms = cycle_us / n / 1000.0;
    for (std::size_t p = 0; p < core::kNumCyclePhases; ++p) {
      metrics.mean_phase_ms[p] = phase_us[p] / n / 1000.0;
    }
  }
  metrics.p95_cycle_ms = engine.metrics()->cycle_seconds->quantile(0.95) * 1e3;
  metrics.peak_memory_mb = static_cast<double>(peak_mem) / (1024.0 * 1024.0);
  metrics.mean_ranges = n_snapshots ? sum_ranges / static_cast<double>(n_snapshots) : 0.0;
  metrics.final_classified = final_classified;
  return metrics;
}

std::vector<core::IpdParams> factorial_design(
    const std::vector<double>& q_levels,
    const std::vector<double>& ncidr4_levels,
    const std::vector<double>& ncidr6_levels,
    const std::vector<int>& cidrmax4_levels,
    const std::vector<int>& cidrmax6_levels) {
  if (ncidr4_levels.size() != ncidr6_levels.size()) {
    throw std::invalid_argument("factorial_design: n_cidr level lists must pair up");
  }
  if (cidrmax4_levels.size() != cidrmax6_levels.size()) {
    throw std::invalid_argument("factorial_design: cidr_max level lists must pair up");
  }
  std::vector<core::IpdParams> design;
  for (const double q : q_levels) {
    for (std::size_t f = 0; f < ncidr4_levels.size(); ++f) {
      for (std::size_t c = 0; c < cidrmax4_levels.size(); ++c) {
        core::IpdParams params;
        params.q = q;
        params.ncidr_factor4 = ncidr4_levels[f];
        params.ncidr_factor6 = ncidr6_levels[f];
        params.cidr_max4 = cidrmax4_levels[c];
        params.cidr_max6 = cidrmax6_levels[c];
        params.validate();
        design.push_back(params);
      }
    }
  }
  return design;
}

std::vector<core::IpdParams> table2_design(double factor_scale,
                                           double ncidr_floor) {
  const std::vector<double> q_levels{0.501, 0.7, 0.8, 0.95, 0.99};
  std::vector<double> f4{32, 48, 64, 80};
  std::vector<double> f6{12, 18, 24, 30};
  for (auto& f : f4) f = std::max(1e-4, f * factor_scale);
  for (auto& f : f6) f = std::max(1e-9, f * factor_scale);
  const std::vector<int> c4{20, 21, 22, 23, 24, 25, 26, 27, 28};
  const std::vector<int> c6{32, 34, 36, 38, 40, 42, 44, 46, 48};
  auto design = factorial_design(q_levels, f4, f6, c4, c6);
  for (auto& params : design) params.ncidr_floor = ncidr_floor;
  return design;
}

std::vector<std::vector<double>> group_by_factor(
    const std::vector<ParamStudyMetrics>& results,
    const std::function<double(const core::IpdParams&)>& factor_of,
    const std::function<double(const ParamStudyMetrics&)>& metric_of) {
  std::map<double, std::vector<double>> grouped;
  for (const auto& r : results) {
    grouped[factor_of(r.params)].push_back(metric_of(r));
  }
  std::vector<std::vector<double>> out;
  out.reserve(grouped.size());
  for (auto& [level, values] : grouped) {
    (void)level;
    out.push_back(std::move(values));
  }
  return out;
}

}  // namespace ipd::analysis
