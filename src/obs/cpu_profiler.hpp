// Sampling CPU profiler with folded-stack (flamegraph) output.
//
// A timer (setitimer) delivers SIGPROF (cpu clock: samples land on
// whichever thread is burning CPU, in proportion to its usage) or SIGALRM
// (wall clock: samples whatever the process is doing, including blocking
// — useful for "why is it idle" and for smoke tests during linger). The
// async-signal-safe handler captures a backtrace() into a pre-allocated
// fill-once sample ring; symbolization (dladdr + demangle) happens
// offline in folded(), whose output feeds flamegraph.pl / speedscope
// directly:
//
//   ipd-main;main;run_cycle;cycle_over_subtree 42
//
// One profiler can be active per process at a time (the signal handler is
// process-global); start() fails with "another profiler is active"
// otherwise — the /profile endpoint maps that to 409.
//
// Overhead at the default 97 Hz (prime, to avoid phase-locking with
// periodic work): one signal + ~35-frame backtrace every ~10 ms of CPU
// time, well under 1% — the 3% observability budget covers perf counters
// and profiler together (bench_obs_overhead gates it, the profiler
// sampling only the paired B sides).
#pragma once

#include <pthread.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace ipd::obs {

struct CpuProfilerConfig {
  /// Samples per second of CPU (or wall) time. Prime by default.
  int hz = 97;
  /// cpu: SIGPROF/ITIMER_PROF (CPU time). wall: SIGALRM/ITIMER_REAL.
  enum class Clock : std::uint8_t { Cpu = 0, Wall } clock = Clock::Cpu;
  /// Sample capacity; the ring fills once per session (overflow samples
  /// are counted, not stored). 16384 at 97 Hz is ~169 s of CPU time.
  std::size_t capacity = 16384;
  /// Deepest stack recorded per sample.
  static constexpr std::size_t kMaxDepth = 32;
};

class CpuProfiler {
 public:
  explicit CpuProfiler(CpuProfilerConfig config = {});
  ~CpuProfiler();
  CpuProfiler(const CpuProfiler&) = delete;
  CpuProfiler& operator=(const CpuProfiler&) = delete;

  /// Arm the timer and install the signal handler. Fails (false, reason
  /// in *error) when another profiler is already active in this process
  /// or the timer cannot be armed. Restarting a stopped profiler resets
  /// its samples.
  bool start(std::string* error = nullptr);

  /// Disarm, quiesce in-flight handlers, and keep the samples for
  /// folded()/raw access. Idempotent; safe to race with the timer.
  void stop();

  bool running() const noexcept;

  /// The process-wide active profiler (nullptr when none). The /profile
  /// endpoint uses this to distinguish "busy" (409) from other failures.
  static CpuProfiler* active() noexcept;

  std::uint64_t samples_captured() const noexcept;
  std::uint64_t samples_dropped() const noexcept;
  const CpuProfilerConfig& config() const noexcept { return config_; }

  /// Aggregate captured stacks into folded flamegraph lines, sorted by
  /// count descending: "thread;outer;...;inner count\n". Symbolization
  /// uses dladdr (link the binary with ENABLE_EXPORTS / -rdynamic for
  /// names; unresolved frames render as [0x...]). Offline — call after
  /// stop(), or accept a racy-but-safe partial view while running.
  std::string folded() const;

  std::size_t memory_bytes() const noexcept;

  struct Sample {
    std::array<void*, CpuProfilerConfig::kMaxDepth> pcs;
    std::uint32_t depth = 0;
    char thread_name[16] = {};
  };
  /// Captured samples, oldest first (tests / custom renderers).
  std::vector<Sample> raw_samples() const;

 private:
  friend void profiler_capture_sample(CpuProfiler& profiler) noexcept;

  CpuProfilerConfig config_;
  struct Slot;
  std::unique_ptr<Slot[]> ring_;
  std::atomic<std::uint64_t> next_{0};     // claimed slots (may exceed capacity)
  std::atomic<std::uint64_t> dropped_{0};  // claims past capacity
  std::atomic<bool> running_{false};
};

/// Synchronously capture the current stack of another live thread of this
/// process (the watchdog's stall forensics). Sends SIGURG — whose default
/// disposition is *ignore*, so a stray late signal can never kill the
/// process — with a one-shot async-signal-safe handler that backtrace()s
/// into a static buffer; the caller spin-waits up to `timeout_ms` for the
/// handler to finish. Serialized process-wide (one capture at a time);
/// independent of the setitimer profiler, so it works while a CpuProfiler
/// session is running. Returns false on timeout or when the thread is
/// gone; `out` is only written on success.
bool capture_thread_stack(pthread_t thread, CpuProfiler::Sample& out,
                          int timeout_ms = 500);

/// Render one captured sample as a folded stack line (no trailing count):
/// "thread;outermost;...;innermost". Same symbolization and
/// capture-machinery trimming as CpuProfiler::folded(). Offline — calls
/// dladdr/demangle, not signal-safe.
std::string folded_stack_line(const CpuProfiler::Sample& sample);

}  // namespace ipd::obs
