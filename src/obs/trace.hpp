// Span tracer and flight recorder.
//
// Records spans (named intervals with numeric args) into a bounded ring and
// renders them as Chrome/Perfetto trace-event JSON ("traceEvents"). Because
// the ring is always on and fixed-size, it doubles as a *flight recorder*:
// the tail of recent activity can be dumped on demand (the /trace endpoint,
// Tracer::to_json) or from a crash handler (install_crash_handler) for
// post-mortem analysis in Perfetto.
//
// Cost model: one mutex-guarded fixed-size slot write per span. Producers
// emit a handful of spans per stage-2 cycle and one per stage-1 batch —
// never one per flow — so tracing stays far below the ingest budget.
// Timed code records spans through obs::Scope (obs/scope.hpp), which
// hands the same interval to the metrics histogram and the perf phase.
// Event names and arg keys must be string literals (static storage): the
// ring stores the pointers and never allocates per event.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

namespace ipd::obs {

/// One numeric argument attached to a trace event. `key` must be a string
/// literal.
struct TraceArg {
  const char* key = "";
  double value = 0.0;
};

/// One fixed-size flight-recorder slot: a complete span ('X' in the
/// trace-event model). `ts_us`/`dur_us` are microseconds on the tracer's
/// monotonic clock (0 = tracer construction).
struct TraceEvent {
  const char* name = "";
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint32_t tid = 1;
  std::array<TraceArg, 4> args{};
  std::uint8_t nargs = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  static constexpr std::size_t kDefaultCapacity = 16384;

  /// A monotonic_ns() reading as microseconds since tracer construction:
  /// the `ts` clock of every recorded event.
  std::int64_t ts_us(std::int64_t mono_ns) const noexcept {
    return (mono_ns - epoch_ns_) / 1000;
  }

  /// Record a complete span ('X'). Extra args beyond the slot's capacity
  /// (4) are dropped. Thread-safe.
  void span(const char* name, std::int64_t ts_us, std::int64_t dur_us,
            std::initializer_list<TraceArg> args = {},
            std::uint32_t tid = 1) noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const;
  std::uint64_t total_recorded() const;
  std::uint64_t dropped() const;  // overwritten by the ring

  /// The most recent `max_events` events, oldest first.
  std::vector<TraceEvent> tail(std::size_t max_events = SIZE_MAX) const;

  /// Render the flight-recorder tail as a Chrome trace-event JSON document
  /// ({"traceEvents": [...]}) loadable in Perfetto / chrome://tracing.
  std::string to_json(std::size_t max_events = SIZE_MAX) const;

  /// Render an arbitrary event list the same way.
  static std::string events_to_json(const std::vector<TraceEvent>& events);

  /// Rough heap usage of the ring (for resource accounting).
  std::size_t memory_bytes() const;

  /// Install a best-effort crash handler (SIGSEGV/SIGBUS/SIGFPE/SIGABRT)
  /// that dumps the flight-recorder tail to `path` before re-raising the
  /// signal. Process-global: one tracer at a time. The handler formats
  /// into a static buffer with snprintf and write(2); it reads the ring
  /// without locking (the crashed thread may hold the mutex), so a dump
  /// racing an in-flight write can contain one torn event — acceptable for
  /// post-mortem use.
  void install_crash_handler(const std::string& path);

  /// The crash handler's dump routine: writes the tail to `path` without
  /// taking the mutex (see install_crash_handler). Public only because the
  /// signal handler must reach it; also handy for tests.
  void dump_for_crash(const char* path, int signum) noexcept;

 private:
  const std::size_t capacity_;
  const std::int64_t epoch_ns_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace ipd::obs
