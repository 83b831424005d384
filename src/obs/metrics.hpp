// Lock-cheap metrics registry.
//
// Instruments are registered once (under a mutex) and then updated through
// stable pointers with relaxed atomics — the hot path is one fetch_add, no
// locks, no allocation. Three instrument kinds, mirroring the Prometheus
// data model:
//
//   Counter    — monotonically increasing 64-bit count,
//   Gauge      — a double that can go up and down (set/add),
//   Histogram  — fixed upper-bound buckets with a total sum and count;
//                quantiles are estimated by linear interpolation inside
//                the hit bucket (the standard Prometheus approximation).
//
// Identity is (name, sorted label set). Asking for the same identity twice
// returns the same instrument, so modules can share counters without
// coordinating. Exporters consume the registry via collect(), which copies
// a consistent-enough snapshot (values are read with relaxed loads; the
// registry is for monitoring, not for synchronization).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ipd::obs {

/// Label set: (key, value) pairs. Stored sorted by key so that label order
/// at the call site does not create distinct identities.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricType : std::uint8_t { Counter, Gauge, Histogram };

const char* to_string(MetricType type) noexcept;

class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept { value_.fetch_add(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

class Histogram {
 public:
  /// `bounds` are the inclusive bucket upper limits, strictly increasing;
  /// a +Inf overflow bucket is implicit.
  explicit Histogram(std::vector<double> bounds);

  /// Record `n` observations of the same value `v` (three atomic RMWs
  /// whatever `n` is).
  void observe(double v, std::uint64_t n = 1) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  const std::vector<double>& bounds() const noexcept { return bounds_; }

  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  /// last entry is the +Inf overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  /// Estimate the q-quantile (q in [0,1]) by linear interpolation within
  /// the bucket containing it. Returns 0 when empty. Values beyond the
  /// last finite bound clamp to that bound (the overflow bucket has no
  /// upper edge to interpolate against).
  double quantile(double q) const;

  /// `n` exponentially growing bounds: start, start*factor, ...
  static std::vector<double> exponential_bounds(double start, double factor,
                                                std::size_t n);
  /// `n` evenly spaced bounds: start, start+width, ...
  static std::vector<double> linear_bounds(double start, double width,
                                           std::size_t n);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_+1 slots
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Read-only copy of one instrument, produced by collect().
struct SampleSnapshot {
  Labels labels;
  double value = 0.0;                     // counter/gauge
  std::vector<double> bounds;             // histogram only
  std::vector<std::uint64_t> cumulative;  // histogram: per-bound + +Inf
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// All instruments sharing one metric name.
struct FamilySnapshot {
  std::string name;
  std::string help;
  MetricType type = MetricType::Counter;
  std::vector<SampleSnapshot> samples;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Get-or-create. The returned reference is stable for the registry's
  /// lifetime. Re-registering a name with a different type throws
  /// std::invalid_argument; `help` is taken from the first registration.
  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       std::vector<double> bounds, Labels labels = {});

  /// Families in registration order, samples in label order.
  std::vector<FamilySnapshot> collect() const;

  std::size_t family_count() const;
  std::size_t instrument_count() const;

  /// Rough heap usage of the registry itself (names, labels, buckets) —
  /// feeds the engine's resource accounting.
  std::size_t memory_bytes() const;

 private:
  struct Instrument {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type;
    std::vector<std::unique_ptr<Instrument>> instruments;
  };

  Instrument& find_or_create(std::string_view name, std::string_view help,
                             MetricType type, Labels&& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Family>> families_;  // registration order
};

/// Monotonic clock in nanoseconds: the clock of obs::Scope, the tracer and
/// the stage-2 phase accumulators.
std::int64_t monotonic_ns() noexcept;

/// Bridge util::logging's rate-limit drop accounting into `registry`:
/// registers `ipd_log_dropped_total{level=...}` counters (seeded with the
/// drops recorded so far) and installs the logging drop hook to keep them
/// live. Process-global — one registry at a time, and it must outlive the
/// binding; call unbind_log_drop_metrics() before destroying it.
void bind_log_drop_metrics(MetricsRegistry& registry);
void unbind_log_drop_metrics() noexcept;

}  // namespace ipd::obs
