// One timing mechanism for every timed layer of the pipeline.
//
// A Layer is the sink bundle of one named piece of work ("stage2.cycle",
// "collector.drain", ...), wired once when its owner attaches sinks: a
// Histogram observing elapsed seconds, a Tracer recording a span on the
// layer's lane, and a PerfCounters phase charged with the counter deltas.
// A Scope reads the clock once at open and once at close and hands that
// one interval to every sink, so /metrics, the trace ring and /perf report
// one measurement under one name. Over a detached layer (no sink) a scope
// costs one branch and reads no clock, unless the owner needs the elapsed
// time itself (`always_time`). Layer::record() is the same fan-out for an
// interval measured elsewhere: the stage-2 phase totals of cycle_logic.
#pragma once

#include <cstdint>
#include <initializer_list>

#include "obs/perf_counters.hpp"
#include "obs/trace.hpp"

namespace ipd::obs {

class Histogram;

class Layer {
 public:
  Layer() = default;  // detached

  /// `name` is a string literal: the span name and the perf phase name.
  /// Any sink may be null; `perf` is registered as a phase here and
  /// charged only while its counters are available.
  Layer(const char* name, std::uint32_t lane, Histogram* hist, Tracer* tracer,
        PerfCounters* perf);

  bool active() const noexcept { return active_; }

  /// Fan out one interval of `ns` starting at monotonic `start_ns`; a
  /// `point` (rdpmc counters) is added to the perf phase.
  void record(std::int64_t start_ns, std::int64_t ns,
              const PerfPoint* point = nullptr,
              std::initializer_list<TraceArg> args = {}) const noexcept;

 private:
  friend class Scope;

  const char* name_ = "";
  std::uint32_t lane_ = 1;
  Histogram* hist_ = nullptr;
  Tracer* tracer_ = nullptr;
  PerfCounters* perf_ = nullptr;  // null unless available and registered
  int perf_phase_ = -1;
  bool active_ = false;
};

class Scope {
 public:
  /// `layer` must outlive the scope.
  explicit Scope(const Layer& layer, bool always_time = false) noexcept;
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Monotonic ns at open; 0 when the scope reads no clock.
  std::int64_t start_ns() const noexcept { return start_ns_; }

  /// End the interval, fan it out (with span `args`) and return the
  /// elapsed ns, 0 when the scope reads no clock. Later calls record
  /// nothing and return the same value.
  std::int64_t close(std::initializer_list<TraceArg> args = {}) noexcept;

 private:
  const Layer* layer_ = nullptr;  // null when inert or closed
  std::int64_t start_ns_ = 0;
  std::int64_t elapsed_ns_ = 0;
  PerfReading perf_start_{};
  bool perf_ok_ = false;
};

}  // namespace ipd::obs
