#include "obs/metrics.hpp"
#include "obs/scope.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace ipd::obs {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.set(-7.0);
  EXPECT_DOUBLE_EQ(g.value(), -7.0);
}

TEST(Histogram, ObservationsLandInTheRightBuckets) {
  // Bounds are inclusive upper limits; one implicit +Inf overflow bucket.
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1
  h.observe(1.0);  // <= 1 (inclusive)
  h.observe(1.5);  // <= 2
  h.observe(4.0);  // <= 4
  h.observe(9.0);  // overflow
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 4.0 + 9.0);
}

TEST(Histogram, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, BoundGenerators) {
  const auto exp = Histogram::exponential_bounds(1.0, 2.0, 4);
  EXPECT_EQ(exp, (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
  const auto lin = Histogram::linear_bounds(10.0, 10.0, 3);
  EXPECT_EQ(lin, (std::vector<double>{10.0, 20.0, 30.0}));
  EXPECT_THROW(Histogram::exponential_bounds(0.0, 2.0, 4),
               std::invalid_argument);
  EXPECT_THROW(Histogram::exponential_bounds(1.0, 1.0, 4),
               std::invalid_argument);
  EXPECT_THROW(Histogram::linear_bounds(0.0, 0.0, 4), std::invalid_argument);
}

TEST(Histogram, QuantileOnUniformDistribution) {
  // 1..100 each observed once into ten equal-width buckets: interpolation
  // should recover quantiles to within one bucket width.
  Histogram h(Histogram::linear_bounds(10.0, 10.0, 10));
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));
  EXPECT_NEAR(h.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 10.0);
  EXPECT_NEAR(h.quantile(0.95), 95.0, 10.0);
  EXPECT_LE(h.quantile(1.0), 100.0);
  // Quantiles must be monotone in q.
  double prev = 0.0;
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double v = h.quantile(q);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

TEST(Histogram, QuantileOnSkewedDistribution) {
  // 90 observations near zero, 10 near 1000: the p50 sits in the low
  // bucket, the p95 in the high one.
  Histogram h({1.0, 10.0, 100.0, 1000.0});
  for (int i = 0; i < 90; ++i) h.observe(0.5);
  for (int i = 0; i < 10; ++i) h.observe(500.0);
  EXPECT_LE(h.quantile(0.5), 1.0);
  EXPECT_GT(h.quantile(0.95), 100.0);
  EXPECT_LE(h.quantile(0.95), 1000.0);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty({1.0, 2.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  // Everything beyond the last finite bound clamps to it.
  Histogram overflow({1.0, 2.0});
  overflow.observe(50.0);
  overflow.observe(60.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(overflow.quantile(0.99), 2.0);
}

TEST(Histogram, QuantileOfEmptyHistogramIsZeroEverywhere) {
  // With no observations there is no distribution to interpolate: every
  // quantile — including the extremes — pins to exactly 0.0 rather than a
  // bucket bound or NaN.
  Histogram empty({1.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
  // Out-of-range q is clamped first, so the answer is still 0.0.
  EXPECT_DOUBLE_EQ(empty.quantile(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(2.0), 0.0);
}

TEST(Histogram, QuantileOfSingleSampleInterpolatesItsBucket) {
  // One observation of 3.0 lands in the (2, 4] bucket. The quantile is a
  // linear walk across exactly that bucket: q=0 sits on the lower edge,
  // q=1 on the upper, q in between interpolates — pinned values, not
  // within-one-bucket approximations.
  Histogram h({1.0, 2.0, 4.0});
  h.observe(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 2.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(Histogram, QuantileOfSingleSampleInFirstBucketUsesZeroFloor) {
  // The first bucket has no lower bound; interpolation anchors at
  // min(0, bound) so a positive-bounded histogram walks from 0.
  Histogram h({4.0, 8.0});
  h.observe(1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 4.0);
}

TEST(Histogram, QuantileRankOnBucketBoundaryReturnsTheBound) {
  // Two observations per bucket: rank q=0.5 lands exactly on the edge
  // between the buckets and must return the shared bound, from either side.
  Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(0.5);
  h.observe(1.5);
  h.observe(1.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(Registry, GetOrCreateReturnsStableInstruments) {
  MetricsRegistry registry;
  Counter& a = registry.counter("requests_total", "help");
  Counter& b = registry.counter("requests_total", "ignored on re-register");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(registry.family_count(), 1u);
  EXPECT_EQ(registry.instrument_count(), 1u);
}

TEST(Registry, LabelOrderDoesNotCreateDistinctIdentities) {
  MetricsRegistry registry;
  Counter& a = registry.counter("flows", "h", {{"family", "v4"}, {"link", "1"}});
  Counter& b = registry.counter("flows", "h", {{"link", "1"}, {"family", "v4"}});
  EXPECT_EQ(&a, &b);
  Counter& c = registry.counter("flows", "h", {{"family", "v6"}, {"link", "1"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(registry.family_count(), 1u);
  EXPECT_EQ(registry.instrument_count(), 2u);
}

TEST(Registry, TypeMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x", "h");
  EXPECT_THROW(registry.gauge("x", "h"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x", "h", {1.0}), std::invalid_argument);
}

TEST(Registry, CollectSnapshotsValuesAndOrder) {
  MetricsRegistry registry;
  registry.counter("beta_total", "b").inc(2);
  registry.gauge("alpha", "a").set(1.5);
  registry.counter("beta_total", "b", {{"family", "v4"}}).inc(7);
  Histogram& h = registry.histogram("lat", "l", {1.0, 2.0});
  h.observe(0.5);
  h.observe(5.0);

  const auto families = registry.collect();
  ASSERT_EQ(families.size(), 3u);
  // Registration order, not alphabetical.
  EXPECT_EQ(families[0].name, "beta_total");
  EXPECT_EQ(families[0].type, MetricType::Counter);
  ASSERT_EQ(families[0].samples.size(), 2u);
  // Unlabeled sample sorts before the labeled one.
  EXPECT_TRUE(families[0].samples[0].labels.empty());
  EXPECT_DOUBLE_EQ(families[0].samples[0].value, 2.0);
  EXPECT_DOUBLE_EQ(families[0].samples[1].value, 7.0);

  EXPECT_EQ(families[1].name, "alpha");
  EXPECT_DOUBLE_EQ(families[1].samples.at(0).value, 1.5);

  EXPECT_EQ(families[2].type, MetricType::Histogram);
  const auto& s = families[2].samples.at(0);
  EXPECT_EQ(s.cumulative, (std::vector<std::uint64_t>{1, 1, 2}));
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.sum, 5.5);
}

TEST(Registry, MemoryBytesGrowsWithInstruments) {
  MetricsRegistry registry;
  const std::size_t empty = registry.memory_bytes();
  for (int i = 0; i < 100; ++i) {
    registry.counter("c", "h", {{"i", std::to_string(i)}});
  }
  registry.histogram("h", "h", Histogram::exponential_bounds(1e-4, 2.0, 24));
  EXPECT_GT(registry.memory_bytes(), empty);
  EXPECT_GT(registry.memory_bytes(), 100 * sizeof(Counter));
}

TEST(Scope, RecordsElapsedSeconds) {
  Histogram h(Histogram::exponential_bounds(1e-6, 10.0, 8));
  const Layer layer("timed", 1, &h, nullptr, nullptr);
  std::int64_t ns = 0;
  {
    Scope scope(layer);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ns = scope.close();
  }  // the destructor after close() must not observe again
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.002);
  EXPECT_LT(h.sum(), 5.0);  // sanity: seconds, not ns
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(ns) * 1e-9);
}

TEST(Scope, NullHistogramIsInert) {
  const Layer layer("untimed", 1, nullptr, nullptr, nullptr);
  Scope scope(layer);  // must not crash on destruction
  EXPECT_EQ(scope.start_ns(), 0);
}

TEST(Histogram, WeightedObserveEqualsRepeatedObserves) {
  const auto bounds = Histogram::exponential_bounds(1e-6, 4.0, 12);
  Histogram single(bounds);
  Histogram weighted(bounds);
  for (const double v : {3e-6, 2e-4, 0.5, 100.0}) {
    for (int i = 0; i < 37; ++i) single.observe(v);
    weighted.observe(v, 37);
  }
  weighted.observe(1e-3, 0);  // n = 0 changes nothing
  EXPECT_EQ(weighted.bucket_counts(), single.bucket_counts());
  EXPECT_EQ(weighted.count(), single.count());
  EXPECT_NEAR(weighted.sum(), single.sum(), 1e-9 * single.sum());
}

TEST(Clock, MonotonicNsAdvances) {
  const auto a = monotonic_ns();
  const auto b = monotonic_ns();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace ipd::obs
