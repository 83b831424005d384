#include "analysis/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace ipd::analysis {
namespace {

TEST(Cdf, BasicStatistics) {
  const Cdf cdf({3.0, 1.0, 2.0, 4.0});
  EXPECT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 4.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 2.5);
  EXPECT_NEAR(cdf.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Cdf, FractionBelow) {
  const Cdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(10.0), 1.0);
}

TEST(Cdf, Quantiles) {
  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  const Cdf cdf(std::move(samples));
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.01), 1.0);
}

TEST(Cdf, CurveIsMonotone) {
  util::Rng rng(3);
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) samples.push_back(rng.lognormal(1.0, 0.5));
  const Cdf cdf(std::move(samples));
  const auto curve = cdf.curve(50);
  ASSERT_EQ(curve.size(), 50u);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GT(curve[i].second, curve[i - 1].second);
  }
}

TEST(Cdf, EmptyBehaviour) {
  const Cdf cdf(std::vector<double>{});
  EXPECT_TRUE(cdf.empty());
  EXPECT_THROW(cdf.min(), std::logic_error);
  EXPECT_THROW(cdf.quantile(0.5), std::logic_error);
  EXPECT_DOUBLE_EQ(cdf.fraction_below(1.0), 0.0);
}

TEST(MedianCi, SameSamplesGiveTheSameInterval) {
  util::Rng rng(11);
  std::vector<double> samples;
  for (int i = 0; i < 16; ++i) samples.push_back(rng.uniform(-5.0, 5.0));
  const MedianCi a = median_ci(samples);
  const MedianCi b = median_ci(samples);
  EXPECT_EQ(a.median, b.median);
  EXPECT_EQ(a.lo, b.lo);
  EXPECT_EQ(a.hi, b.hi);
}

TEST(MedianCi, IntervalBracketsTheMedian) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 3.0}), 3.0);
  util::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> samples;
    const int n = 2 + trial % 30;
    for (int i = 0; i < n; ++i) samples.push_back(rng.lognormal(0.0, 1.0));
    const MedianCi ci = median_ci(samples);
    EXPECT_EQ(ci.median, median(samples)) << "n=" << n;
    EXPECT_LE(ci.lo, ci.median) << "n=" << n;
    EXPECT_GE(ci.hi, ci.median) << "n=" << n;
    EXPECT_LT(ci.lo, ci.hi) << "n=" << n;
  }
}

TEST(MedianCi, DegenerateSamplesGiveAZeroWidthInterval) {
  const MedianCi one = median_ci(std::vector<double>{1.5});
  EXPECT_EQ(one.median, 1.5);
  EXPECT_EQ(one.lo, 1.5);
  EXPECT_EQ(one.hi, 1.5);
  const MedianCi flat = median_ci(std::vector<double>(9, -0.25));
  EXPECT_EQ(flat.median, -0.25);
  EXPECT_EQ(flat.lo, -0.25);
  EXPECT_EQ(flat.hi, -0.25);
}

TEST(MedianCi, RejectsEmptyInput) {
  EXPECT_THROW(median(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(median_ci(std::vector<double>{}), std::invalid_argument);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> x{1, 2, 3, 4};
  const std::vector<double> y{2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  const std::vector<double> neg{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Pearson, IndependentRoughlyZero) {
  util::Rng rng(4);
  std::vector<double> x, y;
  for (int i = 0; i < 20000; ++i) {
    x.push_back(rng.uniform());
    y.push_back(rng.uniform());
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.03);
}

TEST(Pearson, DegenerateInputs) {
  const std::vector<double> x{1, 2};
  const std::vector<double> constant{5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, constant), 0.0);
  const std::vector<double> mismatched{1};
  EXPECT_DOUBLE_EQ(pearson(x, mismatched), 0.0);
}

TEST(FittedDist, NormalCdfValues) {
  const FittedDist d{DistFamily::Normal, 0.0, 1.0};
  EXPECT_NEAR(d.cdf(0.0), 0.5, 1e-9);
  EXPECT_NEAR(d.cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(d.cdf(-1.96), 0.025, 1e-3);
}

TEST(FittedDist, ParetoAndWeibullSupport) {
  const FittedDist pareto{DistFamily::Pareto, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(pareto.cdf(0.5), 0.0);
  EXPECT_NEAR(pareto.cdf(2.0), 0.75, 1e-12);
  const FittedDist weibull{DistFamily::Weibull, 1.0, 1.0};  // == Exp(1)
  EXPECT_NEAR(weibull.cdf(1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_DOUBLE_EQ(weibull.cdf(-1.0), 0.0);
}

TEST(Fit, RecoversLognormalParameters) {
  util::Rng rng(5);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.lognormal(2.0, 0.7));
  const Cdf cdf(std::move(samples));
  const auto fitted = fit(DistFamily::LogNormal, cdf);
  EXPECT_NEAR(fitted.p1, 2.0, 0.05);
  EXPECT_NEAR(fitted.p2, 0.7, 0.05);
}

TEST(Ks, GoodFitHasSmallDistance) {
  util::Rng rng(6);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.normal(10.0, 2.0));
  const Cdf cdf(std::move(samples));
  EXPECT_LT(ks_distance(cdf, fit(DistFamily::Normal, cdf)), 0.02);
}

TEST(Ks, BadFitHasLargeDistance) {
  // Bimodal data fits none of the families well.
  util::Rng rng(7);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) {
    samples.push_back(rng.chance(0.5) ? rng.normal(1.0, 0.05)
                                      : rng.normal(100.0, 0.05));
  }
  const Cdf cdf(std::move(samples));
  EXPECT_GT(ks_distance(cdf, fit(DistFamily::Normal, cdf)), 0.2);
}

TEST(Ks, BestFitPicksTheRightFamily) {
  util::Rng rng(8);
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.lognormal(1.0, 1.0));
  const Cdf cdf(std::move(samples));
  const double best = best_fit_ks(cdf);
  EXPECT_LT(best, 0.02);
  // The lognormal family should be (close to) the winner.
  EXPECT_NEAR(best, ks_distance(cdf, fit(DistFamily::LogNormal, cdf)), 0.01);
}

TEST(IncompleteBeta, KnownValues) {
  // I_x(1, 1) = x.
  EXPECT_NEAR(incomplete_beta(1.0, 1.0, 0.3), 0.3, 1e-9);
  // I_x(2, 2) = x^2 (3 - 2x).
  EXPECT_NEAR(incomplete_beta(2.0, 2.0, 0.5), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(incomplete_beta(2.0, 3.0, 1.0), 1.0);
}

TEST(Anova, DetectsDifferentMeans) {
  util::Rng rng(9);
  std::vector<std::vector<double>> groups(2);
  for (int i = 0; i < 200; ++i) {
    groups[0].push_back(rng.normal(0.0, 1.0));
    groups[1].push_back(rng.normal(2.0, 1.0));
  }
  const auto result = one_way_anova(groups);
  EXPECT_TRUE(result.significant());
  EXPECT_GT(result.f_statistic, 50.0);
  EXPECT_LT(result.p_value, 1e-6);
}

TEST(Anova, NoEffectMeansHighPValue) {
  util::Rng rng(10);
  std::vector<std::vector<double>> groups(4);
  for (int g = 0; g < 4; ++g) {
    for (int i = 0; i < 100; ++i) {
      groups[static_cast<std::size_t>(g)].push_back(rng.normal(5.0, 1.0));
    }
  }
  const auto result = one_way_anova(groups);
  EXPECT_GT(result.p_value, 0.01);
}

TEST(Anova, DegenerateGroups) {
  EXPECT_DOUBLE_EQ(one_way_anova({}).p_value, 1.0);
  EXPECT_DOUBLE_EQ(one_way_anova({{1.0, 2.0}}).p_value, 1.0);
  // Identical constant groups: no variance anywhere.
  const auto result = one_way_anova({{1.0, 1.0}, {1.0, 1.0}});
  EXPECT_DOUBLE_EQ(result.p_value, 1.0);
}

}  // namespace
}  // namespace ipd::analysis
