// Stage-2 cycle logic, factored out of the engine.
//
// One cycle over one trie is a pure function of (trie state, params, now):
// the post-order walk that expires/decays, classifies, splits, drops,
// joins and compacts exactly as Algorithm 1 describes. IpdEngine runs it
// over a whole family's trie when the cut is the root (one shard), and
// otherwise over each cut member's subtree followed by a spine merge
// pass; either way there is a single copy of the decision logic, applied
// to identical per-node operation sequences, which is what makes the
// determinism differentials meaningful.
//
// The walk interleaves phases per node, so it accumulates per-phase time
// into a PhaseAccum; the engine hands each total to its stage2.<phase>
// obs::Layer once per cycle.
#pragma once

#include <optional>

#include "core/engine_base.hpp"
#include "core/params.hpp"
#include "core/trie.hpp"
#include "obs/perf_counters.hpp"

namespace ipd::core {

/// Per-cycle phase-time accumulator (nanoseconds); timing is skipped
/// entirely when `enabled` is false (no phase layer has a sink and no
/// sampler is wired).
struct PhaseAccum {
  bool enabled = false;
  std::array<std::int64_t, kNumCyclePhases> ns{};
  /// Optional userspace (rdpmc) counter sampler for per-phase attribution
  /// of cycles/instructions/LLC misses. Thread-affine: the engine sets it
  /// on the thread that runs the walk (each sharded worker points at its
  /// own). Null — the common case — skips counter sampling entirely.
  const obs::PerfThreadSampler* sampler = nullptr;
  std::array<obs::PerfPoint, kNumCyclePhases> perf{};
};

/// Optional decision/transition sinks for one cycle pass. Above a wider
/// cut the engine points these at per-member buffers during the parallel
/// section and drains them into the globally attached logs in cut order.
struct CycleSinks {
  DecisionLog* decision_log = nullptr;
  CycleDeltaLog* cycle_deltas = nullptr;
};

/// Dominance test of stage 2: the classified ingress if `counts` has a
/// single prevalent ingress point (share >= q), possibly a bundle of
/// interfaces on one router.
std::optional<IngressId> find_prevalent(const IpdParams& params,
                                        const IngressCounts& counts);

/// The join/compact step for one Internal node whose children are already
/// final for this cycle. Used by cycle_over_trie on every internal node
/// and by the engine's cross-member merge on spine nodes.
void join_or_compact(IpdTrie& trie, RangeNode& node, const IpdParams& params,
                     util::Timestamp now, CycleStats& out, PhaseAccum& phases,
                     const CycleSinks& sinks);

/// One full stage-2 pass over `trie` (Algorithm 1 stage 2): post-order
/// walk doing expire/decay/drop, classify, split, join, compact. Event
/// totals accumulate into `out`, per-phase wall time into `phases`.
void cycle_over_trie(IpdTrie& trie, const IpdParams& params,
                     util::Timestamp now, CycleStats& out, PhaseAccum& phases,
                     const CycleSinks& sinks);

/// The same pass restricted to the subtree rooted at `node`. All structural
/// mutation stays inside the subtree, so the engine runs this concurrently
/// on the disjoint subtrees of its cut and follows up with join_or_compact
/// over the spine above them.
void cycle_over_subtree(IpdTrie& trie, RangeNode& node, const IpdParams& params,
                        util::Timestamp now, CycleStats& out,
                        PhaseAccum& phases, const CycleSinks& sinks);

}  // namespace ipd::core
