// The IPD engine: both stages of Algorithm 1 over one range trie per
// family.
//
// Stage 1 (ingest): every flow's source IP is masked to cidr_max and added,
// with its ingress link, to the leaf range covering it.
//
// Stage 2 (run_cycle, every t seconds): per range —
//   * expire per-IP state older than e; decay quiet classified ranges,
//   * unclassified ranges with enough samples (n_cidr) are classified if a
//     single ingress (or an interface bundle on one router) carries a share
//     >= q, otherwise split until cidr_max,
//   * classified ranges whose prevalent ingress is no longer valid are
//     dropped,
//   * sibling ranges classified to the same ingress are joined.
// The cycle logic itself lives in core/cycle_logic.hpp.
//
// One engine, any number of shards. Each family's address space is divided
// into 2^k shards by the top k address bits (EngineConfig::shard_bits). At
// any moment the trie's top k levels induce a *cut*: the subtree roots that
// are either internal nodes at depth k or leaves above depth k. Every cut
// member is shard-aligned (a leaf at depth d < k covers 2^(k-d) whole
// shards), the members tile the address space in address order, and no
// stage-1 or stage-2 operation on one member's subtree touches another's.
//   * stage 1 — a batch's rows are bucketed per owning slot (one per
//     shard-level cut member) in arrival order and the buckets fanned out
//     to the worker pool, one lock acquisition per slot per batch;
//   * stage 2 — the per-subtree cycle passes run in parallel across the
//     cut's *units*, followed by the sequential join/compact walk over the
//     *spine* (internal nodes above the units) and a cut rebuild.
// Stage 2's units are the shard cut, refined by work weight: when the
// engine has worker threads, the census walk that closes every cycle also
// sums each subtree's weight (leaves plus per-IP table slots, what the
// next cycle's walk visits), and the cut rebuild expands any member heavier
// than 1/(4 * ingest_threads) of its family's weight into its two children,
// recursively, below the shard depth if need be. A member below the shard
// depth shares its shard's slot, so stage 1 is unaffected. The units stay
// in address order; one unit no longer carries a whole family's work just
// because its traffic sits under one shard prefix (all of IPv6 global
// unicast lies under 2000::/3). With one thread the cut is the shard cut.
// With k = 0 (the default) and one thread the cut is the root, there is one
// bucket per family, and the cycle is the plain post-order walk over each
// trie: the sequential engine of the paper's §5.7 deployment.
//
// Output is byte-identical at every shard count and thread count (the
// determinism differentials assert it): stage 1 mutates only leaf contents
// under the owning member's lock, in arrival order per member — the same
// per-leaf sample order as record-at-a-time ingest — and stage 2's
// post-order walk decomposes exactly into the per-unit walks plus the
// spine walk, whose operations touch disjoint state. The cut therefore
// only shapes the decomposition, never which operations run or in what
// per-leaf order. Leaf-level transitions (classify/demote) are buffered
// per unit during the parallel section and drained in cut (== address)
// order. The only observable difference is decision-log *interleaving*
// within a cycle: above one unit, spine join/compact events follow all
// unit events.
//
// Thread safety: ingest/apply_batch/for_each_leaf/locate/observers take
// the structure lock shared (per-slot mutexes serialize work inside one
// cut member); run_cycle, observe and snapshot save/restore take it
// exclusive.
// References returned by locate() and trie() are only stable while the
// caller keeps the engine quiescent (no run_cycle), which the
// introspection server guarantees via the shared engine mutex.
//
// Observability: observe() sets the whole EngineObservers bundle
// (core/engine_base.hpp) — registry, decision log, tracer, cycle-delta
// log, perf counters, flow tracer, synth_decode — at once, under the
// exclusive structure lock, and rewires the timed layers once: one
// obs::Scope per obs::Layer (obs/scope.hpp), stage1.ingest per
// apply_batch, stage2.cycle per run_cycle and the five stage2.<phase>
// layers fed the cycle's phase totals, so the stage2.cycle span,
// ipd_cycle_seconds and CycleStats::cycle_micros are one measurement.
// With nothing attached the stage-1 scope is one branch and phase timing
// is off. No apply_batch or run_cycle sees half a bundle, and nothing is
// written into a replaced sink once observe() returns. observers() copies
// the bundle under the shared lock; the runner and the introspection
// server find their sinks through it. Every sink must outlive the engine
// or be replaced before it is destroyed.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/cycle_logic.hpp"
#include "core/engine_base.hpp"
#include "obs/scope.hpp"

namespace ipd::core {

struct EngineConfig {
  /// log2 of the shard count per family (0..16). Shards split on the top
  /// `shard_bits` address bits; parallelism is bounded by how far the
  /// partition has refined (one unit per cut member), so values above
  /// cidr_max just cap out at the trie's actual width.
  int shard_bits = 0;
  /// Worker threads for stage-1 fan-out and stage-2 subtree cycles. 1 runs
  /// everything inline on the calling thread. Above 1, stage 2's units are
  /// also refined by work weight (see the header comment), which shapes
  /// only the parallel decomposition, never the output.
  int ingest_threads = 1;
};

/// Stable handles into a MetricsRegistry for everything the engine exports.
/// Construction registers the full metric surface; updating is relaxed
/// atomics only. Kept public so the runner/collector layers can share the
/// same registry and naming conventions (see README "Observability").
/// Stage-1 counters are not bumped per flow: the engine buffers them per
/// shard slot and publishes the deltas at every stage-2 cycle (and on
/// flush_ingest_metrics()), so the registry trails live ingest by at most
/// one cycle.
class EngineMetrics {
 public:
  EngineMetrics(obs::MetricsRegistry& registry, std::size_t shard_count);

  /// Publish pre-aggregated stage-1 deltas.
  void add_ingest_deltas(net::Family family, std::uint64_t flows,
                         std::uint64_t weight);

  /// Per-ingress-link ingest counter, created on first use.
  obs::Counter& link_counter(topology::LinkId link);

  // Hot-path handles, indexed by family (0 = v4, 1 = v6) / CyclePhase.
  std::array<obs::Counter*, 2> ingest_flows{};
  std::array<obs::Counter*, 2> ingest_weight{};
  obs::Histogram* cycle_seconds = nullptr;
  std::array<obs::Histogram*, kNumCyclePhases> phase_seconds{};
  obs::Counter* cycles_total = nullptr;
  std::array<obs::Counter*, kNumCyclePhases> events{};  // by phase outcome
  std::array<obs::Gauge*, 2> trie_nodes{};
  std::array<obs::Gauge*, 2> trie_leaves{};
  std::array<obs::Gauge*, 2> trie_memory{};
  obs::Gauge* ranges_classified = nullptr;
  obs::Gauge* ranges_monitoring = nullptr;
  obs::Gauge* tracked_ips = nullptr;
  obs::Gauge* memory_bytes = nullptr;
  // Per-shard-slot instruments: one queue-delay histogram per slot (one
  // "all" series beyond 64 shards), lifetime flow gauges [v4][v6 slots]
  // (none beyond 64), and occupancy/balance at every cut republish.
  std::vector<obs::Histogram*> shard_queue_delay;
  std::vector<obs::Gauge*> shard_flows;
  obs::Histogram* shard_occupancy = nullptr;
  std::array<obs::Gauge*, 2> shard_imbalance{};  // by family
  std::array<obs::Gauge*, 2> cut_members{};      // by family

  obs::Histogram& queue_delay(std::size_t slot) const noexcept {
    return *shard_queue_delay[shard_queue_delay.size() == 1 ? 0 : slot];
  }

 private:
  obs::MetricsRegistry* registry_;
  std::unordered_map<std::uint64_t, obs::Counter*> link_counters_;
};

class WorkerPool;

class IpdEngine {
 public:
  explicit IpdEngine(IpdParams params, EngineConfig config = {});
  ~IpdEngine();

  IpdEngine(const IpdEngine&) = delete;
  IpdEngine& operator=(const IpdEngine&) = delete;

  const IpdParams& params() const noexcept { return params_; }

  /// Stage 1, one record: add one sample of `weight` (1 flow, or its byte
  /// count when count_mode is Bytes); a weight of 0 counts as 1, as in
  /// apply_batch, so every per-IP count is >= 1. The reference semantics
  /// apply_batch is defined against. It takes the structure lock and a
  /// slot lock for every flow, so it serves tests and the figure benches;
  /// the deployment path (collector, pipebench) feeds apply_batch.
  void ingest(util::Timestamp ts, const net::IpAddress& src_ip,
              topology::LinkId ingress, std::uint64_t weight = 1) noexcept;
  void ingest(const netflow::FlowRecord& record) noexcept {
    ingest(record.ts, record.src_ip, record.ingress,
           params_.count_mode == CountMode::Bytes ? record.bytes : 1);
  }

  /// Stage 1 from a structure-of-arrays batch — the decode path's native
  /// currency. Byte-identical to ingesting the rows one at a time in
  /// order. Rows are masked and bucketed per cut member in arrival
  /// order; each bucket (on the pool) runs interleaved trie
  /// descents (IpdTrie::locate_many), applies per-leaf aggregates in
  /// arrival order, and hands the Monitoring rows' per-IP probes to
  /// FlatIpTable::apply_many. Stage 1 never mutates trie structure, so
  /// locating every row up front reproduces the per-record effect
  /// sequence.
  void apply_batch(const netflow::FlowBatch& batch) noexcept;

  /// Stage 2: one classification cycle at simulated time `now`.
  CycleStats run_cycle(util::Timestamp now);

  EngineStats stats() const noexcept;

  /// Visit every leaf of one family's partition, in address order (the
  /// order snapshots are written in — identical at every shard count).
  void for_each_leaf(net::Family family,
                     const std::function<void(const RangeNode&)>& fn) const;

  /// The leaf range currently covering `ip` (/explain routing).
  const RangeNode& locate(const net::IpAddress& ip) const;

  /// Direct trie access for tests and tools; the caller keeps the engine
  /// quiescent.
  const IpdTrie& trie(net::Family family) const noexcept {
    return family_state(family).trie;
  }
  IpdTrie& trie(net::Family family) noexcept {
    return family_state(family).trie;
  }

  /// Dominance test used by stage 2; exposed for tests. Returns the
  /// classified ingress if `counts` has a single prevalent ingress point
  /// (share >= q), possibly a bundle of interfaces on one router.
  std::optional<IngressId> find_prevalent(const IngressCounts& counts) const {
    return core::find_prevalent(params_, counts);
  }

  /// Replace every sink at once (null = detached); see the header comment.
  void observe(const EngineObservers& observers);
  EngineObservers observers() const;  // a copy, under the shared lock

  /// Handles into the bundle's registry (nullptr without one); the caller
  /// keeps the engine quiescent and the bundle unchanged.
  EngineMetrics* metrics() noexcept { return metrics_.get(); }

  /// Publish buffered stage-1 metric deltas into the registry (called ad
  /// hoc before scraping; run_cycle flushes too).
  void flush_ingest_metrics();

  /// Only for the pipeline benchmark, which is built against this header
  /// unchanged: observe() with `registry` as the metrics sink and every
  /// other sink kept. Nothing else may call it.
  void attach_metrics(obs::MetricsRegistry& registry);

  // Shard-routing surface (property tests, /explain diagnostics).
  int shard_bits() const noexcept { return config_.shard_bits; }
  std::size_t shard_count() const noexcept { return shard_count_; }

  /// Family-local index of the shard owning `ip` (after masking to the
  /// family's cidr_max — masking never changes the owning shard).
  std::size_t shard_of(const net::IpAddress& ip) const noexcept {
    return shard_index(ip.masked(params_.cidr_max(ip.family())));
  }

  /// The root prefix of shard `index` of `family`.
  net::Prefix shard_prefix(net::Family family, std::size_t index) const;

  /// Current number of stage-2 units in the family's cut (1 = the whole
  /// family is one unit, up to 2^k once the partition refines to the shard
  /// depth — beyond 2^k where the weighted cut expands heavy members).
  std::size_t parallel_units(net::Family family) const;

  /// JSON document for the /shards introspection endpoint: per-family
  /// shard-slot load (lifetime flows + last-interval deltas) and the
  /// current cut members with their prefixes and owning slots.
  std::string shards_json() const;

 private:
  friend struct SnapshotAccess;

  /// Per-slot buffered stage-1 metric deltas, published in slot order
  /// under the exclusive structure lock. One writer at a time (the slot's
  /// mutex holder); a slot belongs to one family. Per-link flow counts go
  /// through a direct-mapped cache, so a flow costs a few adds instead of
  /// a hash-map increment; only evicted counts reach `overflow`. The cache
  /// is allocated on the slot's first counted flow and sized so a family's
  /// slots share about 4096 entries (at least 64 each).
  struct IngestDeltas {
    struct LinkCount {
      std::uint64_t tag = 0;  // link.key() + 1; 0 = empty
      std::uint64_t count = 0;
    };
    std::uint64_t flows = 0;
    std::uint64_t weight = 0;
    std::unique_ptr<LinkCount[]> links;
    std::unordered_map<std::uint64_t, std::uint64_t> overflow;

    LinkCount& entry(topology::LinkId link, int bits) {
      if (!links) links = std::make_unique<LinkCount[]>(std::size_t{1} << bits);
      return links[(link.key() * 0x9e3779b97f4a7c15ULL) >> (64 - bits)];
    }
    void count_link(topology::LinkId link, int bits) {
      LinkCount& e = entry(link, bits);
      const std::uint64_t tag = link.key() + 1;
      if (e.tag == tag) {
        ++e.count;
        return;
      }
      if (e.tag != 0) overflow[e.tag - 1] += e.count;
      e = {tag, 1};
    }
  };

  /// One lock slot. The cut member covering shards [s, s+span) is
  /// serialized by slot s (its first shard), so at most `cut.size()` of
  /// the 2^k slots are active at any moment. Flow counters accumulate in
  /// the slot forever (slots never move), so stats() needs no lock.
  struct Slot {
    // All slot mutexes report to one "engine.slot" lock site — per-slot
    // sites would scale series cardinality with 2^shard_bits.
    mutable obs::InstrumentedMutex mutex{"engine.slot"};
    std::atomic<std::uint64_t> flows{0};
    IngestDeltas deltas;
  };

  /// One family: a single trie plus the current cut over it.
  struct FamilyState {
    explicit FamilyState(net::Family f) : family(f), trie(f) {}
    net::Family family;
    IpdTrie trie;
    std::vector<std::unique_ptr<Slot>> slots;  // 2^k, fixed
    // Cut members (stage-2 units) in address order, as indices into the
    // trie's node pool (indices are stable across splits; freed slots are
    // only reused for nodes created under the exclusive lock, so a cut
    // index can never silently re-point mid-cycle). Rebuilt after every
    // cycle under the exclusive structure lock; read under the shared lock.
    std::vector<NodeIndex> cut;
    // Same members as a set, for the spine walk's "stop at the cut" test
    // (the weighted cut is no longer a fixed-depth frontier).
    std::unordered_set<NodeIndex> cut_set;
    // shard index -> slot index of the cut member owning that shard. Cut
    // members deeper than shard_bits all share their shard's slot.
    std::vector<std::uint32_t> owner;
    // Per-slot lifetime flow counts at the last cut republish, and the
    // delta accumulated over the last stage-2 interval — the occupancy
    // signal behind /shards and the shard-occupancy metrics.
    std::vector<std::uint64_t> last_flows;
    std::vector<std::uint64_t> last_deltas;
    // Subtree work weights by node index, written by the census walk in
    // rebuild_cut (with worker threads only); scratch, valid only there.
    std::vector<std::uint64_t> weights;
  };

  /// One stage-2 unit's private result and sinks. Kept across cycles (one
  /// per unit index) so the parallel section allocates no sinks; the
  /// sinks are emptied by the in-order drain that follows it.
  struct CycleUnit {
    CycleStats stats;
    PhaseAccum phases;
    std::unique_ptr<DecisionLog> decisions;
    std::unique_ptr<CycleDeltaLog> transitions;
  };

  /// Reusable per-batch storage, pooled so concurrent apply_batch calls
  /// don't allocate every time. Row-indexed columns are read-only once
  /// bucketed. Each bucket lists its rows in arrival order and owns the
  /// slice [base, base + rows) of the columns it writes, so workers on
  /// different buckets never write the same cache line.
  struct Staging {
    std::vector<net::IpAddress> masked;      // by row, masked to cidr_max
    std::vector<std::uint64_t> flow_id;      // by row, 0 = not sampled
    std::vector<RangeNode*> leaf;            // per-bucket slices
    std::vector<FlatIpTable::ApplyOp> ops;   // per-bucket slices
    std::vector<std::vector<std::uint32_t>> buckets;  // [v4 slots][v6 slots]
    std::vector<std::uint32_t> active;       // non-empty bucket indices
    std::vector<std::uint32_t> base;         // parallel to `active`
  };

  FamilyState& family_state(net::Family f) noexcept {
    return f == net::Family::V4 ? v4_ : v6_;
  }
  const FamilyState& family_state(net::Family f) const noexcept {
    return f == net::Family::V4 ? v4_ : v6_;
  }

  /// Family-local shard index of a masked address.
  std::size_t shard_index(const net::IpAddress& ip) const noexcept {
    if (config_.shard_bits == 0) return 0;
    if (ip.is_v4()) return ip.v4_value() >> (32 - config_.shard_bits);
    return static_cast<std::size_t>(ip.hi() >> (64 - config_.shard_bits));
  }

  /// Slot serializing the cut member that covers `masked`.
  std::size_t slot_index(const FamilyState& state,
                         const net::IpAddress& masked) const noexcept {
    return state.owner[shard_index(masked)];
  }

  /// Flow-trace entry hops for one flow routed to `slot`: the synthesized
  /// Decode hop (with synth_decode) and ShardRoute. Returns the flow's
  /// provenance id when it is hash-sampled, 0 otherwise. Call only while a
  /// flow tracer is attached.
  std::uint64_t trace_route(util::Timestamp ts, const net::IpAddress& masked,
                            topology::LinkId ingress,
                            std::size_t slot) const noexcept;

  std::unique_ptr<Staging> acquire_staging();
  void release_staging(std::unique_ptr<Staging> staging);
  /// Stage 1 for one bucket (== one cut member) of a staged batch.
  void apply_bucket(const netflow::FlowBatch& batch, Staging& staging,
                    std::size_t active_index) noexcept;

  /// Take the family's census (one walk over every node, which with
  /// worker threads also sums each subtree's work weight), then re-derive
  /// the cut and the shard->slot ownership map: the shard cut from the
  /// trie's top k levels, each member expanded while it is internal and
  /// heavier than 1/(4 * ingest_threads) of the family's weight. Also
  /// measures per-slot occupancy since the last republish. Returns the
  /// census. Exclusive structure lock required.
  TrieCensus rebuild_cut(FamilyState& state);

  void cycle_family(FamilyState& state, util::Timestamp now, CycleStats& out,
                    PhaseAccum& phases);
  void spine_pass(FamilyState& state, RangeNode& node, util::Timestamp now,
                  CycleStats& out, PhaseAccum& phases,
                  const CycleSinks& sinks);

  void flush_deltas_locked();
  void publish_cycle_metrics(const CycleStats& out,
                             const std::array<TrieCensus, 2>& census);

  IpdParams params_;
  EngineConfig config_;
  std::size_t shard_count_;
  int link_cache_bits_;  // log2 entries of each slot's link cache

  // Structure lock: ingest/snapshot/locate take it shared (the per-slot
  // mutexes serialize access within a cut member); run_cycle — the only
  // structural mutator — takes it exclusive.
  mutable obs::InstrumentedSharedMutex structure_mutex_{"engine.structure"};

  FamilyState v4_;
  FamilyState v6_;

  std::unique_ptr<WorkerPool> pool_;
  // Per-unit results and sinks of the stage-2 parallel section, by unit
  // index; used under the exclusive structure lock only.
  std::vector<CycleUnit> units_;

  obs::InstrumentedMutex staging_mutex_{"engine.staging"};
  std::vector<std::unique_ptr<Staging>> staging_pool_;

  // Lifetime counters (stage 2 writes under the exclusive lock; stats()
  // reads concurrently — relaxed atomics keep dashboards race-free).
  std::atomic<std::uint64_t> cycles_run_{0};
  std::atomic<std::uint64_t> total_classifications_{0};
  std::atomic<std::uint64_t> total_splits_{0};
  std::atomic<std::uint64_t> total_joins_{0};
  std::atomic<std::uint64_t> total_drops_{0};

  std::unique_ptr<EngineMetrics> metrics_;  // handles into observers_.metrics
  // Written only by observe(), under the exclusive structure lock.
  EngineObservers observers_;
  // Timed layers, rewired by every observe().
  obs::Layer stage1_layer_;
  obs::Layer cycle_layer_;
  std::array<obs::Layer, kNumCyclePhases> phase_layers_;
};

}  // namespace ipd::core
