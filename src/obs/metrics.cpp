#include "obs/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "util/logging.hpp"

namespace ipd::obs {

const char* to_string(MetricType type) noexcept {
  switch (type) {
    case MetricType::Counter: return "counter";
    case MetricType::Gauge: return "gauge";
    case MetricType::Histogram: return "histogram";
  }
  return "?";
}

std::int64_t monotonic_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("Histogram: bounds must be strictly increasing");
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double v, std::uint64_t n) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_.fetch_add(v * static_cast<double>(n), std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  if (total == 0) return 0.0;

  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t before = cumulative;
    cumulative += counts[i];
    if (static_cast<double>(cumulative) < rank) continue;
    // The quantile falls inside bucket i: interpolate between its edges.
    if (i >= bounds_.size()) return bounds_.empty() ? 0.0 : bounds_.back();
    const double hi = bounds_[i];
    const double lo = i == 0 ? std::min(0.0, hi) : bounds_[i - 1];
    const double into =
        (rank - static_cast<double>(before)) / static_cast<double>(counts[i]);
    return lo + (hi - lo) * std::clamp(into, 0.0, 1.0);
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t n) {
  if (start <= 0.0 || factor <= 1.0) {
    throw std::invalid_argument(
        "Histogram: exponential bounds need start > 0, factor > 1");
  }
  std::vector<double> bounds;
  bounds.reserve(n);
  double b = start;
  for (std::size_t i = 0; i < n; ++i, b *= factor) bounds.push_back(b);
  return bounds;
}

std::vector<double> Histogram::linear_bounds(double start, double width,
                                             std::size_t n) {
  if (width <= 0.0) {
    throw std::invalid_argument("Histogram: linear bounds need width > 0");
  }
  std::vector<double> bounds;
  bounds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    bounds.push_back(start + width * static_cast<double>(i));
  }
  return bounds;
}

// ----------------------------------------------------------------- Registry

namespace {
Labels normalize(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}
}  // namespace

MetricsRegistry::Instrument& MetricsRegistry::find_or_create(
    std::string_view name, std::string_view help, MetricType type,
    Labels&& labels) {
  labels = normalize(std::move(labels));
  const std::lock_guard<std::mutex> lock(mutex_);
  Family* family = nullptr;
  for (const auto& f : families_) {
    if (f->name == name) {
      family = f.get();
      break;
    }
  }
  if (family == nullptr) {
    auto f = std::make_unique<Family>();
    f->name = std::string(name);
    f->help = std::string(help);
    f->type = type;
    families_.push_back(std::move(f));
    family = families_.back().get();
  } else if (family->type != type) {
    throw std::invalid_argument("MetricsRegistry: " + std::string(name) +
                                " re-registered with a different type");
  }
  for (const auto& instrument : family->instruments) {
    if (instrument->labels == labels) return *instrument;
  }
  auto instrument = std::make_unique<Instrument>();
  instrument->labels = std::move(labels);
  family->instruments.push_back(std::move(instrument));
  return *family->instruments.back();
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  Labels labels) {
  Instrument& instrument =
      find_or_create(name, help, MetricType::Counter, std::move(labels));
  if (!instrument.counter) instrument.counter = std::make_unique<Counter>();
  return *instrument.counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              Labels labels) {
  Instrument& instrument =
      find_or_create(name, help, MetricType::Gauge, std::move(labels));
  if (!instrument.gauge) instrument.gauge = std::make_unique<Gauge>();
  return *instrument.gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help,
                                      std::vector<double> bounds,
                                      Labels labels) {
  Instrument& instrument =
      find_or_create(name, help, MetricType::Histogram, std::move(labels));
  if (!instrument.histogram) {
    instrument.histogram = std::make_unique<Histogram>(std::move(bounds));
  }
  return *instrument.histogram;
}

std::vector<FamilySnapshot> MetricsRegistry::collect() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FamilySnapshot> out;
  out.reserve(families_.size());
  for (const auto& family : families_) {
    FamilySnapshot fs;
    fs.name = family->name;
    fs.help = family->help;
    fs.type = family->type;
    for (const auto& instrument : family->instruments) {
      SampleSnapshot s;
      s.labels = instrument->labels;
      if (instrument->counter) {
        s.value = static_cast<double>(instrument->counter->value());
      } else if (instrument->gauge) {
        s.value = instrument->gauge->value();
      } else if (instrument->histogram) {
        const Histogram& h = *instrument->histogram;
        s.bounds = h.bounds();
        const auto buckets = h.bucket_counts();
        s.cumulative.resize(buckets.size());
        std::uint64_t running = 0;
        for (std::size_t i = 0; i < buckets.size(); ++i) {
          running += buckets[i];
          s.cumulative[i] = running;
        }
        s.count = h.count();
        s.sum = h.sum();
      }
      fs.samples.push_back(std::move(s));
    }
    std::sort(fs.samples.begin(), fs.samples.end(),
              [](const SampleSnapshot& a, const SampleSnapshot& b) {
                return a.labels < b.labels;
              });
    out.push_back(std::move(fs));
  }
  return out;
}

std::size_t MetricsRegistry::family_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return families_.size();
}

std::size_t MetricsRegistry::instrument_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = 0;
  for (const auto& family : families_) n += family->instruments.size();
  return n;
}

std::size_t MetricsRegistry::memory_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::size_t bytes = families_.capacity() * sizeof(families_[0]);
  for (const auto& family : families_) {
    bytes += sizeof(Family) + family->name.capacity() + family->help.capacity();
    bytes += family->instruments.capacity() * sizeof(family->instruments[0]);
    for (const auto& instrument : family->instruments) {
      bytes += sizeof(Instrument);
      for (const auto& [k, v] : instrument->labels) {
        bytes += sizeof(k) + k.capacity() + sizeof(v) + v.capacity();
      }
      if (instrument->counter) bytes += sizeof(Counter);
      if (instrument->gauge) bytes += sizeof(Gauge);
      if (instrument->histogram) {
        bytes += sizeof(Histogram) +
                 instrument->histogram->bounds().size() *
                     (sizeof(double) + sizeof(std::atomic<std::uint64_t>));
      }
    }
  }
  return bytes;
}

// ------------------------------------------------- Logging drop-rate bridge

namespace {

// One counter per util::LogLevel; atomics because the hook can fire from
// any thread while bind/unbind runs on another.
std::atomic<Counter*> g_log_drop_counters[4] = {};

void log_drop_hook(util::LogLevel level) {
  auto i = static_cast<std::size_t>(level);
  if (i >= 4) i = 3;
  if (Counter* counter =
          g_log_drop_counters[i].load(std::memory_order_acquire)) {
    counter->inc();
  }
}

}  // namespace

void bind_log_drop_metrics(MetricsRegistry& registry) {
  constexpr util::LogLevel kLevels[] = {
      util::LogLevel::Debug, util::LogLevel::Info, util::LogLevel::Warn,
      util::LogLevel::Error};
  for (const util::LogLevel level : kLevels) {
    Counter& counter = registry.counter(
        "ipd_log_dropped_total",
        "Log records suppressed by warn-once/rate-limited sites",
        {{"level", util::level_name(level)}});
    // Seed with drops recorded before the bridge existed so the series
    // never under-reports.
    const std::uint64_t already = util::log_dropped_total(level);
    if (already > counter.value()) counter.inc(already - counter.value());
    g_log_drop_counters[static_cast<std::size_t>(level)].store(
        &counter, std::memory_order_release);
  }
  util::set_log_drop_hook(&log_drop_hook);
}

void unbind_log_drop_metrics() noexcept {
  util::set_log_drop_hook(nullptr);
  for (auto& slot : g_log_drop_counters) {
    slot.store(nullptr, std::memory_order_release);
  }
}

}  // namespace ipd::obs
