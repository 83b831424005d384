// Statistics toolkit for the evaluation harness.
//
// Provides the machinery the paper's evaluation relies on: empirical CDFs,
// a median with a bootstrap confidence interval (paired overhead benches),
// Pearson correlation (flow/byte correlation, miss/traffic correlation),
// the Kolmogorov-Smirnov distance against fitted reference distributions
// (Appendix A stability metric), and one-way ANOVA (Appendix A factor
// screening).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ipd::analysis {

/// Empirical distribution of a sample set.
class Cdf {
 public:
  explicit Cdf(std::vector<double> samples);

  std::size_t size() const noexcept { return samples_.size(); }
  bool empty() const noexcept { return samples_.empty(); }

  double min() const;
  double max() const;
  double mean() const noexcept { return mean_; }
  double stddev() const noexcept;

  /// P(X <= x).
  double fraction_below(double x) const noexcept;

  /// Inverse: smallest sample s with P(X <= s) >= q, q in [0,1].
  double quantile(double q) const;

  /// (x, F(x)) pairs at `points` evenly spaced quantiles, for plotting.
  std::vector<std::pair<double, double>> curve(int points = 100) const;

  const std::vector<double>& sorted_samples() const noexcept { return samples_; }

 private:
  std::vector<double> samples_;  // sorted
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations
};

/// A sample median with a two-sided percentile-bootstrap confidence
/// interval around it.
struct MedianCi {
  double median = 0.0;
  double lo = 0.0;
  double hi = 0.0;
};

/// Median of `samples`: the middle value, or the mean of the two middle
/// values for even n. Throws std::invalid_argument on empty input.
double median(std::span<const double> samples);

/// median(samples) and its 95% percentile-bootstrap interval: 4000 draws
/// of n with replacement from a util::Rng with a fixed seed, so the same
/// samples always give the same interval. One sample, or all-equal
/// samples, give a zero-width interval. Throws std::invalid_argument on
/// empty input.
MedianCi median_ci(std::span<const double> samples);

/// Pearson correlation coefficient; returns 0 for degenerate inputs.
double pearson(std::span<const double> x, std::span<const double> y) noexcept;

/// Reference distributions for KS fitting.
enum class DistFamily { Normal, LogNormal, Weibull, Pareto };

const char* to_string(DistFamily family) noexcept;

struct FittedDist {
  DistFamily family = DistFamily::Normal;
  double p1 = 0.0;  // mu / mu-of-log / shape k / scale xm
  double p2 = 1.0;  // sigma / sigma-of-log / scale lambda / shape alpha

  /// CDF value at x.
  double cdf(double x) const noexcept;
};

/// Moment/quantile-based fit of `family` to the samples.
FittedDist fit(DistFamily family, const Cdf& samples);

/// Kolmogorov-Smirnov distance between the empirical CDF and `dist`.
double ks_distance(const Cdf& samples, const FittedDist& dist) noexcept;

/// Fit all four families and return the smallest KS distance
/// (the Appendix-A "distance to the ideal stability distribution").
double best_fit_ks(const Cdf& samples);

/// One-way ANOVA across groups of observations.
struct AnovaResult {
  double f_statistic = 0.0;
  double p_value = 1.0;
  double between_ss = 0.0;
  double within_ss = 0.0;
  std::size_t df_between = 0;
  std::size_t df_within = 0;
  bool significant(double alpha = 0.05) const noexcept { return p_value < alpha; }
};

AnovaResult one_way_anova(const std::vector<std::vector<double>>& groups);

/// Regularized incomplete beta function I_x(a, b) (for the F distribution).
double incomplete_beta(double a, double b, double x) noexcept;

}  // namespace ipd::analysis
