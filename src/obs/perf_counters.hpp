// Hardware performance-counter telemetry (perf_event_open).
//
// The engines time their phases with wall clocks, but the ROADMAP's next
// perf frontier (SIMD decode, prefetch-pipelined trie descents) needs
// microarchitectural visibility: per-phase IPC, LLC miss rates and branch
// misses tell *why* a phase is slow, not just that it is. PerfCounters
// wraps one grouped perf_event_open reader per thread — task-clock
// (software, the group leader), cycles, instructions, LLC loads/misses
// and branch misses — and accumulates counter deltas per named phase
// ("stage1.ingest", "stage2.cycle", "collector.drain", ...).
//
// Usage: a phase is the perf sink of an obs::Layer (obs/scope.hpp). Wiring
// the layer registers the phase; an obs::Scope over it brackets work —
// feeding the layer's histogram and span from the same interval — and
// readers pull aggregated totals via snapshot()/to_json() or publish
// derived IPC / miss-rate gauges into a MetricsRegistry (and from there
// the TSDB + health rules).
//
// Cost model: a scope charging a phase is two read(2) syscalls (~1-2 us
// each) on the group leader, so scopes go around *batches* — a 4096-record
// ingest batch, a whole stage-2 cycle, one collector drain round — never
// around per-node work. For per-stage-2-phase attribution (expire vs
// classify vs split...) an opt-in rdpmc path (PerfThreadSampler) reads
// cycles / instructions / LLC-misses from userspace via the perf mmap page
// seqlock protocol in ~100 ns, cheap enough for cycle_logic's per-node
// phase boundaries.
//
// Degradation ladder (always graceful, never fatal):
//   * full:    PMU exposed, perf_event_paranoid <= 2 -> all six events
//   * partial: no PMU (most VMs/containers: hardware events fail with
//              ENOENT) -> software task-clock only; hardware-derived
//              columns are simply absent
//   * none:    perf_event_open denied entirely (EACCES/ENOSYS, seccomp,
//              IPD_PERF_DISABLE=1) -> layers wired to it drop their perf
//              sink, a single warn-once explains why, available() == false
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ipd::obs {

class MetricsRegistry;

/// The fixed event set of one per-thread group, in open order. TaskClock
/// leads the group: it is a software event, available even where the PMU
/// is not, so the group survives partial hardware failure.
enum class PerfEvent : std::uint8_t {
  TaskClock = 0,  // ns of CPU time (software; the group leader)
  Cycles,
  Instructions,
  LlcLoads,
  LlcMisses,
  BranchMisses,
};
inline constexpr std::size_t kNumPerfEvents = 6;

const char* to_string(PerfEvent event) noexcept;

/// One snapshot (or delta) of a thread's counter group. Values are raw
/// (unscaled); time_enabled/time_running expose multiplexing, which is
/// ~never active for these always-on self-monitoring groups.
struct PerfReading {
  std::array<std::uint64_t, kNumPerfEvents> value{};
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;

  std::uint64_t operator[](PerfEvent event) const noexcept {
    return value[static_cast<std::size_t>(event)];
  }
};

/// A fast rdpmc sample: the three events cheap-phase attribution needs.
struct PerfPoint {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
};

/// Aggregated counter deltas for one named phase, across all threads.
struct PerfPhaseTotals {
  std::string name;
  std::uint64_t scopes = 0;  // completed scopes / phase points charged here
  std::array<std::uint64_t, kNumPerfEvents> value{};
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;

  std::uint64_t operator[](PerfEvent event) const noexcept {
    return value[static_cast<std::size_t>(event)];
  }
  /// instructions / cycles; 0 when cycles are unavailable.
  double ipc() const noexcept;
  /// LLC misses / LLC loads; 0 when either is unavailable.
  double llc_miss_rate() const noexcept;
};

struct PerfCountersConfig {
  /// Enable the rdpmc per-stage-2-phase path (PerfThreadSampler). Off by
  /// default: it adds two userspace reads per trie node during cycles.
  bool per_phase = false;
  /// Tests only: make every perf_event_open fail with this errno instead
  /// of calling the real syscall (e.g. EACCES, ENOSYS).
  int simulate_errno = 0;
};

class PerfGroup;

/// Userspace (rdpmc) view over one thread's group, valid on that thread
/// only and only while the owning PerfCounters lives. read() is the perf
/// mmap-page seqlock protocol: ~100 ns, no syscall, async-safe.
class PerfThreadSampler {
 public:
  /// Internal: constructed by PerfCounters per thread. Obtain one via
  /// PerfCounters::thread_sampler().
  explicit PerfThreadSampler(const PerfGroup* group) noexcept
      : group_(group) {}

  /// Current cycles/instructions/LLC-misses for the owning thread.
  /// Returns false (zeros) when the rdpmc path is unavailable.
  bool read(PerfPoint& out) const noexcept;

 private:
  const PerfGroup* group_;
};

/// Process-wide phase-scoped counter aggregation. Thread-safe: each
/// thread lazily opens its own counter group on first use (perf fds with
/// pid=0 count the opening thread only), and phase totals are relaxed
/// atomics. Groups are owned here and closed on destruction.
class PerfCounters {
 public:
  static constexpr int kMaxPhases = 32;

  explicit PerfCounters(PerfCountersConfig config = {});
  ~PerfCounters();
  PerfCounters(const PerfCounters&) = delete;
  PerfCounters& operator=(const PerfCounters&) = delete;

  /// Register (or look up) a phase by name; returns its id, or -1 when
  /// the table is full (scopes with id -1 are inert). Cold path.
  int phase(std::string_view name);

  /// Did the constructing thread open at least one event? (Partial
  /// availability — software-only — still counts as available.)
  bool available() const noexcept { return available_; }
  bool event_available(PerfEvent event) const noexcept {
    return event_live_[static_cast<std::size_t>(event)];
  }
  /// errno of the first failed perf_event_open (0 when everything, or
  /// nothing at all, was attempted — see disabled()).
  int open_errno() const noexcept { return open_errno_; }
  /// True when IPD_PERF_DISABLE=1 suppressed the syscalls entirely.
  bool disabled() const noexcept { return disabled_; }
  const PerfCountersConfig& config() const noexcept { return config_; }

  /// The rdpmc sampler for the calling thread, or nullptr when the
  /// per-phase path is off or rdpmc is unsupported (no PMU, cap_user_rdpmc
  /// clear, non-x86). Creates the thread's group on first call.
  PerfThreadSampler* thread_sampler() noexcept;

  /// Read the calling thread's current group totals (obs::Scope brackets
  /// its interval with two of these). False when unavailable.
  bool read_current(PerfReading& out) noexcept;

  /// Charge the calling thread's counters since `start` (a read_current()
  /// reading) to `phase_id` (-1: ignored) — the close of an obs::Scope.
  void add_phase_since(int phase_id, const PerfReading& start) noexcept;
  /// Accumulate rdpmc-attributed per-phase points (the engine folds
  /// cycle_logic's PhaseAccum in here after each cycle, via Layer::record).
  void add_phase_point(int phase_id, const PerfPoint& delta) noexcept;

  std::vector<PerfPhaseTotals> snapshot() const;

  /// Publish ipd_perf_* gauges (per-phase raw totals plus derived IPC and
  /// LLC miss rate, and a global availability flag) into `registry`.
  void publish(MetricsRegistry& registry);

  /// The /perf endpoint body: availability, per-event liveness, and the
  /// per-phase totals with derived ratios.
  std::string to_json() const;

  std::size_t memory_bytes() const noexcept;

 private:
  struct PhaseSlot;
  struct ThreadState;

  ThreadState* state_for_this_thread() noexcept;

  PerfCountersConfig config_;
  const std::uint64_t instance_id_;
  bool available_ = false;
  bool disabled_ = false;
  int open_errno_ = 0;
  std::array<bool, kNumPerfEvents> event_live_{};

  mutable std::mutex mutex_;  // guards threads_ and phase registration
  std::vector<std::unique_ptr<ThreadState>> threads_;
  std::unique_ptr<std::array<PhaseSlot, kMaxPhases>> phases_;
  std::atomic<int> phase_count_{0};
};

}  // namespace ipd::obs
