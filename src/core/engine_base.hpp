// Value types of the IPD engine: the stage-2 phase enum, per-cycle and
// lifetime counters, the range-transition sink, and the observer bundle.
//
// They live apart from core/engine.hpp so the stage-2 cycle logic
// (core/cycle_logic.hpp), which the engine itself includes, can report
// through them, and so headers of the layers above the engine — the binned
// runner, the snapshot writer, the introspection server — can name the
// engine without its full definition. The determinism-differential tests
// compare these structures field by field across shard counts.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <vector>

#include "core/decision_log.hpp"
#include "core/params.hpp"
#include "core/trie.hpp"
#include "netflow/flow_batch.hpp"
#include "netflow/flow_record.hpp"
#include "obs/lock_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ipd::obs {
class PerfCounters;
class FlowTracer;
}

namespace ipd::core {

/// The distinct kinds of stage-2 work, timed separately per cycle.
enum class CyclePhase : std::uint8_t {
  Expire = 0,  // per-IP expiry + decay/drop of quiet classified ranges
  Classify,    // dominance test + classification
  Split,       // splitting undecided ranges
  Join,        // joining same-ingress classified siblings
  Compact,     // folding empty sibling pairs into their parent
};
inline constexpr std::size_t kNumCyclePhases = 5;

const char* to_string(CyclePhase phase) noexcept;

/// Counters describing one stage-2 cycle.
struct CycleStats {
  util::Timestamp now = 0;
  std::uint64_t classifications = 0;  // monitoring -> classified
  std::uint64_t splits = 0;
  std::uint64_t joins = 0;
  std::uint64_t drops = 0;        // classified -> dropped (invalid/decayed)
  std::uint64_t compactions = 0;  // empty siblings folded into parent
  std::uint64_t ranges_total = 0;
  std::uint64_t ranges_classified = 0;
  std::uint64_t ranges_monitoring = 0;
  std::uint64_t tracked_ips = 0;      // per-IP entries held (stage-1 state)
  std::uint64_t memory_bytes = 0;     // exact trie heap (arena + per-node
                                      // tables) + observability layers
                                      // (+ bin buffer, see runner)
  std::int64_t cycle_micros = 0;      // wall-clock stage-2 runtime: the
                                      // stage2.cycle scope's interval
  // Per-phase wall time, indexed by CyclePhase. Only populated while a
  // stage-2 phase layer has a sink (metrics, tracer or perf attached):
  // timing every leaf visit is not free. Above a parallel cut this is
  // summed time across worker threads, so it can exceed cycle_micros.
  std::array<std::int64_t, kNumCyclePhases> phase_micros{};
};

/// One stage-2 structural transition relevant to ingress-shift detection:
/// a classified range losing its prevalent ingress (Demote) or a range
/// (re-)gaining one (Classify), with the quantities at decision time.
struct RangeTransition {
  enum class Kind : std::uint8_t { Demote, Classify };
  util::Timestamp ts = 0;
  Kind kind = Kind::Demote;
  net::Prefix prefix;
  IngressId ingress;     // Demote: the lost ingress; Classify: the new one
  double share = 0.0;    // dominant-ingress share at decision time
  double samples = 0.0;  // range sample total at decision time
};

/// Accumulating sink for per-cycle demotion/re-classification deltas.
/// The engine appends while one is attached; a consumer (the health
/// engine's shift rule) drains at its own cadence. Bounded: beyond
/// `capacity` the newest transitions are dropped and counted, so a
/// misbehaving cycle cannot grow the buffer without bound. Stage-2 only —
/// the ingest path never touches it.
class CycleDeltaLog {
 public:
  explicit CycleDeltaLog(std::size_t capacity = 65536)
      : capacity_(capacity) {}

  void push(RangeTransition transition);

  /// Consume-and-clear all buffered transitions, oldest first.
  std::vector<RangeTransition> drain();

  std::size_t size() const;
  std::uint64_t total_recorded() const;
  std::uint64_t dropped() const;
  std::size_t memory_bytes() const;  // including undrained transitions

 private:
  const std::size_t capacity_;
  mutable obs::InstrumentedMutex mutex_{"engine.cycle_deltas"};
  std::vector<RangeTransition> items_;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Lifetime counters.
struct EngineStats {
  std::uint64_t flows_ingested = 0;
  std::uint64_t cycles_run = 0;
  std::uint64_t total_classifications = 0;
  std::uint64_t total_splits = 0;
  std::uint64_t total_joins = 0;
  std::uint64_t total_drops = 0;
};

/// Everything that watches one engine, set as a unit by
/// IpdEngine::observe(). Sinks are borrowed, optional (nullptr = off) and
/// must outlive the engine or be replaced before they are destroyed.
struct EngineObservers {
  obs::MetricsRegistry* metrics = nullptr;
  DecisionLog* decisions = nullptr;       // stage-2 structural decisions
  obs::Tracer* tracer = nullptr;          // stage2.cycle + phase spans
  CycleDeltaLog* cycle_deltas = nullptr;  // demotions/classifications
  obs::PerfCounters* perf = nullptr;
  obs::FlowTracer* flow_trace = nullptr;  // sampled-flow provenance hops
  /// Record a Decode hop for sampled flows at stage-1 entry. Set by
  /// callers that feed the engine through a BinnedRunner (no decode stage
  /// in front); the collector's readers record Decode themselves.
  bool synth_decode = false;

  std::uint64_t memory_bytes() const;  // heap of every attached sink
};

class IpdEngine;

}  // namespace ipd::core
