#include "analysis/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace ipd::analysis {

Cdf::Cdf(std::vector<double> samples) : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end());
  // Welford over the sorted data (order does not matter).
  double mean = 0.0, m2 = 0.0;
  std::size_t n = 0;
  for (const double x : samples_) {
    ++n;
    const double d = x - mean;
    mean += d / static_cast<double>(n);
    m2 += d * (x - mean);
  }
  mean_ = mean;
  m2_ = m2;
}

double Cdf::min() const {
  if (samples_.empty()) throw std::logic_error("Cdf::min on empty set");
  return samples_.front();
}

double Cdf::max() const {
  if (samples_.empty()) throw std::logic_error("Cdf::max on empty set");
  return samples_.back();
}

double Cdf::stddev() const noexcept {
  return samples_.size() > 1
             ? std::sqrt(m2_ / static_cast<double>(samples_.size() - 1))
             : 0.0;
}

double Cdf::fraction_below(double x) const noexcept {
  if (samples_.empty()) return 0.0;
  const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
  return static_cast<double>(std::distance(samples_.begin(), it)) /
         static_cast<double>(samples_.size());
}

double Cdf::quantile(double q) const {
  if (samples_.empty()) throw std::logic_error("Cdf::quantile on empty set");
  if (q <= 0.0) return samples_.front();
  if (q >= 1.0) return samples_.back();
  const auto idx = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples_.size())) - 1);
  return samples_[std::min(idx, samples_.size() - 1)];
}

std::vector<std::pair<double, double>> Cdf::curve(int points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points <= 0) return out;
  out.reserve(static_cast<std::size_t>(points));
  for (int i = 1; i <= points; ++i) {
    const double q = static_cast<double>(i) / points;
    out.emplace_back(quantile(q), q);
  }
  return out;
}

namespace {
double median_of(std::vector<double>& xs) {
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  const double upper = xs[mid];
  if (xs.size() % 2 == 1) return upper;
  return 0.5 * (*std::max_element(xs.begin(), xs.begin() + mid) + upper);
}
}  // namespace

double median(std::span<const double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: no samples");
  std::vector<double> xs(samples.begin(), samples.end());
  return median_of(xs);
}

MedianCi median_ci(std::span<const double> samples) {
  constexpr int kResamples = 4000;
  constexpr double kTail = 0.025;  // each side of a 95% interval
  constexpr std::uint64_t kSeed = 1;
  MedianCi out;
  out.median = median(samples);
  util::Rng rng(kSeed);
  std::vector<double> resample(samples.size());
  std::vector<double> medians;
  medians.reserve(kResamples);
  for (int r = 0; r < kResamples; ++r) {
    for (double& x : resample) x = samples[rng.below(samples.size())];
    medians.push_back(median_of(resample));
  }
  const Cdf boot(std::move(medians));
  out.lo = boot.quantile(kTail);
  out.hi = boot.quantile(1.0 - kTail);
  return out;
}

double pearson(std::span<const double> x, std::span<const double> y) noexcept {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const auto n = static_cast<double>(x.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / n, my = sy / n;
  double sxy = 0, sxx = 0, syy = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx, dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

const char* to_string(DistFamily family) noexcept {
  switch (family) {
    case DistFamily::Normal: return "normal";
    case DistFamily::LogNormal: return "lognormal";
    case DistFamily::Weibull: return "weibull";
    case DistFamily::Pareto: return "pareto";
  }
  return "?";
}

namespace {
double normal_cdf(double z) noexcept { return 0.5 * std::erfc(-z / std::sqrt(2.0)); }
}  // namespace

double FittedDist::cdf(double x) const noexcept {
  switch (family) {
    case DistFamily::Normal:
      return p2 > 0.0 ? normal_cdf((x - p1) / p2) : (x >= p1 ? 1.0 : 0.0);
    case DistFamily::LogNormal:
      if (x <= 0.0) return 0.0;
      return p2 > 0.0 ? normal_cdf((std::log(x) - p1) / p2)
                      : (std::log(x) >= p1 ? 1.0 : 0.0);
    case DistFamily::Weibull:
      if (x <= 0.0) return 0.0;
      return 1.0 - std::exp(-std::pow(x / p2, p1));
    case DistFamily::Pareto:
      if (x <= p1) return 0.0;
      return 1.0 - std::pow(p1 / x, p2);
  }
  return 0.0;
}

FittedDist fit(DistFamily family, const Cdf& samples) {
  if (samples.empty()) throw std::invalid_argument("fit: empty sample set");
  FittedDist d;
  d.family = family;
  switch (family) {
    case DistFamily::Normal:
      d.p1 = samples.mean();
      d.p2 = std::max(samples.stddev(), 1e-12);
      break;
    case DistFamily::LogNormal: {
      double sum = 0.0, sum2 = 0.0;
      std::size_t n = 0;
      for (const double x : samples.sorted_samples()) {
        if (x <= 0.0) continue;
        const double lx = std::log(x);
        sum += lx;
        sum2 += lx * lx;
        ++n;
      }
      if (n == 0) throw std::invalid_argument("fit lognormal: no positive samples");
      d.p1 = sum / static_cast<double>(n);
      const double var = sum2 / static_cast<double>(n) - d.p1 * d.p1;
      d.p2 = std::sqrt(std::max(var, 1e-12));
      break;
    }
    case DistFamily::Weibull: {
      // Quantile matching at 30 % / 90 %: closed form for shape and scale.
      const double q30 = std::max(samples.quantile(0.30), 1e-12);
      const double q90 = std::max(samples.quantile(0.90), q30 * (1.0 + 1e-9));
      const double num = std::log(-std::log(1.0 - 0.90)) -
                         std::log(-std::log(1.0 - 0.30));
      d.p1 = std::max(num / (std::log(q90) - std::log(q30)), 1e-3);  // shape k
      d.p2 = q90 / std::pow(-std::log(1.0 - 0.90), 1.0 / d.p1);      // scale
      break;
    }
    case DistFamily::Pareto: {
      double xm = samples.min();
      if (xm <= 0.0) xm = 1e-12;
      double sum_log = 0.0;
      std::size_t n = 0;
      for (const double x : samples.sorted_samples()) {
        if (x < xm) continue;
        sum_log += std::log(std::max(x, xm) / xm);
        ++n;
      }
      d.p1 = xm;
      d.p2 = sum_log > 0.0 ? static_cast<double>(n) / sum_log : 100.0;  // alpha
      break;
    }
  }
  return d;
}

double ks_distance(const Cdf& samples, const FittedDist& dist) noexcept {
  const auto& xs = samples.sorted_samples();
  if (xs.empty()) return 1.0;
  const auto n = static_cast<double>(xs.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double model = dist.cdf(xs[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    worst = std::max(worst, std::max(std::abs(model - lo), std::abs(model - hi)));
  }
  return worst;
}

double best_fit_ks(const Cdf& samples) {
  double best = 1.0;
  for (const auto family : {DistFamily::Normal, DistFamily::LogNormal,
                            DistFamily::Weibull, DistFamily::Pareto}) {
    try {
      best = std::min(best, ks_distance(samples, fit(family, samples)));
    } catch (const std::invalid_argument&) {
      // family not fittable to this sample set (e.g. non-positive data)
    }
  }
  return best;
}

double incomplete_beta(double a, double b, double x) noexcept {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  // Continued fraction (Lentz); use the symmetry relation for convergence.
  const double ln_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  const double front = std::exp(std::log(x) * a + std::log1p(-x) * b - ln_beta) / a;
  if (x > (a + 1.0) / (a + b + 2.0)) {
    return 1.0 - incomplete_beta(b, a, 1.0 - x);
  }
  double f = 1.0, c = 1.0, d = 0.0;
  for (int i = 0; i <= 300; ++i) {
    const int m = i / 2;
    double numerator;
    if (i == 0) {
      numerator = 1.0;
    } else if (i % 2 == 0) {
      numerator = (m * (b - m) * x) / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
    } else {
      numerator = -((a + m) * (a + b + m) * x) /
                  ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
    }
    d = 1.0 + numerator * d;
    if (std::abs(d) < 1e-30) d = 1e-30;
    d = 1.0 / d;
    c = 1.0 + numerator / c;
    if (std::abs(c) < 1e-30) c = 1e-30;
    const double delta = c * d;
    f *= delta;
    if (std::abs(1.0 - delta) < 1e-10) break;
  }
  return front * (f - 1.0);
}

AnovaResult one_way_anova(const std::vector<std::vector<double>>& groups) {
  AnovaResult result;
  std::size_t total_n = 0;
  double grand_sum = 0.0;
  std::size_t k = 0;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    ++k;
    total_n += g.size();
    for (const double x : g) grand_sum += x;
  }
  if (k < 2 || total_n <= k) return result;
  const double grand_mean = grand_sum / static_cast<double>(total_n);

  double ss_between = 0.0, ss_within = 0.0;
  for (const auto& g : groups) {
    if (g.empty()) continue;
    double sum = 0.0;
    for (const double x : g) sum += x;
    const double mean = sum / static_cast<double>(g.size());
    ss_between += static_cast<double>(g.size()) * (mean - grand_mean) *
                  (mean - grand_mean);
    for (const double x : g) ss_within += (x - mean) * (x - mean);
  }
  result.between_ss = ss_between;
  result.within_ss = ss_within;
  result.df_between = k - 1;
  result.df_within = total_n - k;
  if (ss_within <= 0.0) {
    result.f_statistic = ss_between > 0.0 ? 1e12 : 0.0;
    result.p_value = ss_between > 0.0 ? 0.0 : 1.0;
    return result;
  }
  const double ms_between = ss_between / static_cast<double>(result.df_between);
  const double ms_within = ss_within / static_cast<double>(result.df_within);
  result.f_statistic = ms_between / ms_within;
  // p = P(F > f) via the incomplete beta function.
  const double d1 = static_cast<double>(result.df_between);
  const double d2 = static_cast<double>(result.df_within);
  const double x = d2 / (d2 + d1 * result.f_statistic);
  result.p_value = incomplete_beta(d2 / 2.0, d1 / 2.0, x);
  return result;
}

}  // namespace ipd::analysis
