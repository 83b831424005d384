// Lock-contention telemetry.
//
// InstrumentedMutex / InstrumentedSharedMutex are drop-in Lockable wrappers
// that attribute every acquisition to a *named site* in a process-global
// LockRegistry. Sites are shared by name — all shard slot mutexes report to
// one "engine.slot" site — so cardinality stays bounded no matter how many
// mutex objects exist.
//
// Cost model (the whole point — bench_obs_overhead measures it):
//
//   uncontended acquire  : one relaxed fetch_add + a try_lock (same atomic
//                          op the plain mutex would do) + one predictable
//                          branch. No clock reads.
//   sampled acquire      : every 1/kSamplePeriod acquisitions (counter
//                          modulus, deterministic) additionally reads the
//                          TSC around the acquire and the critical section,
//                          feeding the wait/hold histograms.
//   contended acquire    : try_lock failed — the thread is about to block,
//                          so two TSC reads are noise. Wait time is always
//                          measured and the contention counter bumped.
//
// Hold timing stores the entry timestamp inside the mutex object itself;
// that slot is only touched while the lock is held, so it needs no atomics
// (exclusive holders serialize it). Shared (reader) acquisitions of
// InstrumentedSharedMutex count and measure wait but never hold — several
// concurrent holders make "hold time" ill-defined per-site.
//
// Timestamps use the TSC on x86_64 (calibrated once against the steady
// clock) and clock_gettime elsewhere.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace ipd::obs {

/// One acquisition in kSamplePeriod also times the uncontended fast path.
/// Power of two; the check is a mask test on the relaxed acquisition count.
inline constexpr std::uint64_t kLockSamplePeriod = 256;

/// Cheap monotonic tick counter for lock timing: raw TSC on x86_64,
/// clock_gettime(CLOCK_MONOTONIC) elsewhere. Convert with lock_ticks_to_ns.
std::uint64_t lock_ticks() noexcept;
/// Tick -> nanosecond conversion (calibrated lazily, ~1ms one-time cost).
std::int64_t lock_ticks_to_ns(std::uint64_t ticks) noexcept;

/// Aggregated telemetry for one named lock site. All mutation paths are
/// lock-free (relaxed atomics; histograms are obs::Histogram, themselves
/// relaxed). Never destroyed — sites live in the process-global registry.
class LockSite {
 public:
  explicit LockSite(std::string name);

  const std::string& name() const noexcept { return name_; }

  // -- fast path hooks (called by the mutex wrappers) ---------------------
  /// Returns the post-increment acquisition count; callers use it for the
  /// sampling decision so the whole fast path costs one fetch_add.
  std::uint64_t on_acquire() noexcept {
    return acquisitions_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  void on_contended(std::int64_t wait_ns) noexcept;
  void on_sampled_wait(std::int64_t wait_ns) noexcept;
  void on_hold(std::int64_t hold_ns) noexcept;

  struct Snapshot {
    std::string name;
    std::uint64_t acquisitions = 0;   ///< every acquire (incl. shared)
    std::uint64_t contended = 0;      ///< acquires that had to block
    std::uint64_t wait_samples = 0;   ///< timed waits (contended + sampled)
    std::uint64_t hold_samples = 0;   ///< timed critical sections
    double wait_seconds_total = 0.0;  ///< sum over timed waits
    double hold_seconds_total = 0.0;  ///< sum over timed holds
    double wait_p50_s = 0.0, wait_p99_s = 0.0, wait_max_s = 0.0;
    double hold_p50_s = 0.0, hold_p99_s = 0.0, hold_max_s = 0.0;
  };
  Snapshot snapshot() const;

 private:
  std::string name_;
  std::atomic<std::uint64_t> acquisitions_{0};
  std::atomic<std::uint64_t> contended_{0};
  std::atomic<std::uint64_t> wait_ns_total_{0};
  std::atomic<std::uint64_t> hold_ns_total_{0};
  std::atomic<std::uint64_t> wait_max_ns_{0};
  std::atomic<std::uint64_t> hold_max_ns_{0};
  Histogram wait_hist_;  // seconds
  Histogram hold_hist_;  // seconds
};

/// Process-global name -> LockSite map. Sites are created on first use and
/// never removed; lookup happens once per mutex object (at construction),
/// not per acquisition.
class LockRegistry {
 public:
  static LockRegistry& instance();

  /// Get-or-create; the pointer is stable for the process lifetime.
  LockSite* site(std::string_view name);

  std::vector<LockSite::Snapshot> snapshot() const;

  /// Testing escape hatch: forget nothing, but expose how many sites exist.
  std::size_t site_count() const;

 private:
  LockRegistry() = default;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<LockSite>> sites_;
};

/// std::mutex wrapper satisfying Lockable. Site name is resolved once at
/// construction; all instances sharing a name feed one site.
class InstrumentedMutex {
 public:
  explicit InstrumentedMutex(std::string_view site_name)
      : site_(LockRegistry::instance().site(site_name)) {}

  InstrumentedMutex(const InstrumentedMutex&) = delete;
  InstrumentedMutex& operator=(const InstrumentedMutex&) = delete;

  void lock() {
    const std::uint64_t n = site_->on_acquire();
    const bool sampled = (n & (kLockSamplePeriod - 1)) == 0;
    if (!sampled) {
      if (mutex_.try_lock()) return;      // uncontended fast path: no clocks
      const std::uint64_t t0 = lock_ticks();
      mutex_.lock();
      site_->on_contended(lock_ticks_to_ns(lock_ticks() - t0));
      return;
    }
    const std::uint64_t t0 = lock_ticks();
    if (mutex_.try_lock()) {
      site_->on_sampled_wait(lock_ticks_to_ns(lock_ticks() - t0));
    } else {
      mutex_.lock();
      site_->on_contended(lock_ticks_to_ns(lock_ticks() - t0));
    }
    hold_start_ticks_ = lock_ticks();  // serialized: we hold the lock
  }

  bool try_lock() {
    if (!mutex_.try_lock()) return false;
    const std::uint64_t n = site_->on_acquire();
    if ((n & (kLockSamplePeriod - 1)) == 0) hold_start_ticks_ = lock_ticks();
    return true;
  }

  void unlock() {
    if (hold_start_ticks_ != 0) {
      site_->on_hold(lock_ticks_to_ns(lock_ticks() - hold_start_ticks_));
      hold_start_ticks_ = 0;
    }
    mutex_.unlock();
  }

  LockSite* site() const noexcept { return site_; }

 private:
  std::mutex mutex_;
  LockSite* site_;
  // Written/read only while the lock is held; 0 = this hold is not sampled.
  std::uint64_t hold_start_ticks_ = 0;
};

/// std::shared_mutex wrapper. Exclusive acquisitions get the full
/// treatment; shared acquisitions count + measure wait only (concurrent
/// holders make hold time ill-defined).
class InstrumentedSharedMutex {
 public:
  explicit InstrumentedSharedMutex(std::string_view site_name)
      : site_(LockRegistry::instance().site(site_name)) {}

  InstrumentedSharedMutex(const InstrumentedSharedMutex&) = delete;
  InstrumentedSharedMutex& operator=(const InstrumentedSharedMutex&) = delete;

  void lock() {
    const std::uint64_t n = site_->on_acquire();
    const bool sampled = (n & (kLockSamplePeriod - 1)) == 0;
    if (!sampled) {
      if (mutex_.try_lock()) return;
      const std::uint64_t t0 = lock_ticks();
      mutex_.lock();
      site_->on_contended(lock_ticks_to_ns(lock_ticks() - t0));
      return;
    }
    const std::uint64_t t0 = lock_ticks();
    if (mutex_.try_lock()) {
      site_->on_sampled_wait(lock_ticks_to_ns(lock_ticks() - t0));
    } else {
      mutex_.lock();
      site_->on_contended(lock_ticks_to_ns(lock_ticks() - t0));
    }
    hold_start_ticks_ = lock_ticks();
  }

  bool try_lock() {
    if (!mutex_.try_lock()) return false;
    const std::uint64_t n = site_->on_acquire();
    if ((n & (kLockSamplePeriod - 1)) == 0) hold_start_ticks_ = lock_ticks();
    return true;
  }

  void unlock() {
    if (hold_start_ticks_ != 0) {
      site_->on_hold(lock_ticks_to_ns(lock_ticks() - hold_start_ticks_));
      hold_start_ticks_ = 0;
    }
    mutex_.unlock();
  }

  void lock_shared() {
    const std::uint64_t n = site_->on_acquire();
    const bool sampled = (n & (kLockSamplePeriod - 1)) == 0;
    if (!sampled) {
      if (mutex_.try_lock_shared()) return;
      const std::uint64_t t0 = lock_ticks();
      mutex_.lock_shared();
      site_->on_contended(lock_ticks_to_ns(lock_ticks() - t0));
      return;
    }
    const std::uint64_t t0 = lock_ticks();
    if (mutex_.try_lock_shared()) {
      site_->on_sampled_wait(lock_ticks_to_ns(lock_ticks() - t0));
    } else {
      mutex_.lock_shared();
      site_->on_contended(lock_ticks_to_ns(lock_ticks() - t0));
    }
  }

  bool try_lock_shared() {
    if (!mutex_.try_lock_shared()) return false;
    site_->on_acquire();
    return true;
  }

  void unlock_shared() { mutex_.unlock_shared(); }

  LockSite* site() const noexcept { return site_; }

 private:
  std::shared_mutex mutex_;
  LockSite* site_;
  std::uint64_t hold_start_ticks_ = 0;  // exclusive holds only
};

/// Push the global lock registry into `registry` as gauges
/// (ipd_lock_acquisitions_total / _contended_total / _wait_seconds_total /
/// _hold_seconds_total / _wait_p99_seconds / _hold_p99_seconds, all labeled
/// {site=...}). Gauges, not counters, because totals are set absolutely
/// from the snapshot. Call from a metrics publish hook.
void publish_lock_metrics(MetricsRegistry& registry);

/// JSON array of site snapshots, sorted by total wait descending.
std::string lock_sites_json();

/// Fixed-width table for /locks?format=text and ipd_top; at most
/// `max_rows` rows (0 = all), sorted by total wait descending.
std::string lock_sites_text(std::size_t max_rows = 0);

}  // namespace ipd::obs
