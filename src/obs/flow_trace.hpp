// Per-flow provenance tracing via deterministic hash-based sampling.
//
// A flow's identity is the 64-bit mix of the only fields every pipeline
// stage can see — (data timestamp, cidr_max-masked source IP, ingress link
// key) — so each hop recomputes the same id independently, with no token
// threaded through rings or batches. A flow is sampled iff the id's top
// log2(period) bits are zero, which makes the sampled *set* a pure
// function of the input: identical across shard counts, thread counts,
// and batch sizes (the determinism-differential harness asserts exactly
// this). This is the large-flow-identification trick of Azzana et al.
// repurposed for lineage: the hash gates work, so the unsampled hot path
// pays one multiply + one mask test (~2 ns) per hop.
//
// Sampled flows accumulate timestamped hops (decode, ring enqueue/dequeue,
// shard routing, stage-1 trie apply) into a bounded FIFO journey ring;
// stage-2 decisions are correlated lazily at export time through the
// DecisionLog (events covering the flow's IP at or after its data time),
// so stage 2 itself carries zero tracing cost. Journeys export as JSON
// (the /flows endpoint) or JSONL (`ipd_replay --flow-trace-out`).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ip_address.hpp"
#include "obs/metrics.hpp"
#include "topology/ids.hpp"
#include "util/time.hpp"

namespace ipd::obs {

/// Pipeline stages a sampled flow is observed at, in causal order.
enum class FlowHopKind : std::uint8_t {
  Decode,       // datagram/record decoded at the collector or replay reader
  RingEnqueue,  // pushed onto a collector SPSC ring (detail = source index)
  RingDequeue,  // drained off the ring by the IPD thread
  ShardRoute,   // bucketed to a trie-cut member (detail = slot index)
  TrieApply,    // stage-1 add_sample landed in the range trie
};

const char* to_string(FlowHopKind kind) noexcept;

/// One timestamped observation of a sampled flow at a pipeline stage.
struct FlowHop {
  FlowHopKind kind = FlowHopKind::Decode;
  std::uint32_t detail = 0;      // stage-specific: source / shard index
  util::Timestamp data_ts = 0;   // simulated data time of the record
  std::int64_t mono_ns = 0;      // monotonic wall clock at observation
};

/// The recorded life of one sampled flow.
struct FlowJourney {
  std::uint64_t id = 0;          // deterministic hash id (see flow_id())
  net::IpAddress ip;             // cidr_max-masked source address
  topology::LinkId link;         // ingress link of the first observation
  util::Timestamp first_ts = 0;  // data time of the first observation
  std::uint64_t hops_dropped = 0;  // hops beyond max_hops_per_flow
  std::vector<FlowHop> hops;
};

/// Render one journey as a standalone JSON object (no trailing newline).
/// `decisions_json` — optional pre-rendered JSON array of correlated
/// stage-2 decision events; empty means "emit an empty array".
std::string to_json(const FlowJourney& journey,
                    const std::string& decisions_json = std::string());

struct FlowTracerConfig {
  // Sampling period (rounded up to a power of two). 1 samples every
  // flow; the default keeps tracing invisible at production rates.
  std::uint64_t sample_period = 65536;
  std::size_t max_flows = 512;         // retained journeys (FIFO evict)
  std::size_t max_hops_per_flow = 32;  // hops kept per journey
};

class FlowTracer {
 public:
  using Config = FlowTracerConfig;

  /// IPD_FLOW_SAMPLE=<n> overrides the default period (n >= 1; malformed
  /// or absent values fall back to `fallback`).
  static std::uint64_t sample_period_from_env(
      std::uint64_t fallback = 65536) noexcept;

  explicit FlowTracer(Config config = {});

  FlowTracer(const FlowTracer&) = delete;
  FlowTracer& operator=(const FlowTracer&) = delete;

  /// The deterministic flow identity. `masked` must already be masked to
  /// the family's cidr_max so every stage hashes the same bits.
  static std::uint64_t flow_id(util::Timestamp ts,
                               const net::IpAddress& masked,
                               topology::LinkId link) noexcept {
    // This runs once per hop on the UNSAMPLED hot path, so it is one
    // multiply total (multiply-shift hashing): rotations keep the xor
    // combine from cancelling across fields, the odd-constant product
    // distributes the HIGH bits well, and sampled() tests exactly those
    // bits. The multiply is a bijection, so id collisions are no more
    // likely than with a full finalizer. A chained splitmix64 per
    // component was measured at ~16% ingest overhead; this fits the 3%
    // observability budget.
    const std::uint64_t raw =
        static_cast<std::uint64_t>(ts) ^ rotl(masked.lo(), 17) ^
        rotl(masked.hi(), 31) ^ rotl(link.key(), 47) ^
        (static_cast<std::uint64_t>(masked.family()) << 62);
    return raw * 0x9e3779b97f4a7c15ULL;
  }

  /// Sampled iff the id's top log2(period) bits are all zero (the
  /// well-mixed end of a multiply-shift hash) — still a pure function of
  /// the id, so the sampled set stays deterministic.
  bool sampled(std::uint64_t id) const noexcept {
    return (id & sample_gate_) == 0;
  }

  std::uint64_t sample_period() const noexcept { return sample_period_; }

  /// Hash-test-record in one call: returns the flow id when the flow is
  /// sampled (after recording the hop), 0 otherwise. This is the hot-path
  /// entry — unsampled flows cost one hash and one branch.
  std::uint64_t observe(FlowHopKind kind, util::Timestamp ts,
                        const net::IpAddress& masked, topology::LinkId link,
                        std::uint32_t detail = 0) noexcept {
    const std::uint64_t id = flow_id(ts, masked, link);
    if (!sampled(id)) return 0;
    record(id, kind, ts, masked, link, detail);
    return id;
  }

  /// Record a hop for a flow already known to be sampled (id != 0), e.g.
  /// when the id was computed once at routing time and carried alongside
  /// the staged sample.
  void record(std::uint64_t id, FlowHopKind kind, util::Timestamp ts,
              const net::IpAddress& masked, topology::LinkId link,
              std::uint32_t detail = 0) noexcept;

  /// Export decode->trie-apply latency and sampling counters to the
  /// registry. Call once before traffic; nullptr detaches.
  void bind_metrics(MetricsRegistry* registry);

  /// Copy out up to `limit` journeys, oldest first (0 = all retained).
  std::vector<FlowJourney> journeys(std::size_t limit = 0) const;

  std::uint64_t flows_sampled() const noexcept;   // unique journeys ever
  std::uint64_t hops_recorded() const noexcept;
  std::uint64_t journeys_evicted() const noexcept;
  /// Heap held by the retained journeys and the id index.
  std::size_t memory_bytes() const;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int r) noexcept {
    return (x << r) | (x >> (64 - r));
  }

  std::uint64_t sample_period_;  // power of two, >= 1
  std::uint64_t sample_gate_;    // top log2(period) bits; 0 == sample all
  Config config_;

  mutable std::mutex mutex_;
  std::deque<FlowJourney> ring_;                         // FIFO, bounded
  std::unordered_map<std::uint64_t, std::size_t> index_;  // id -> seq
  std::uint64_t ring_base_ = 0;  // seq of ring_.front()
  std::uint64_t flows_sampled_ = 0;
  std::uint64_t hops_recorded_ = 0;
  std::uint64_t journeys_evicted_ = 0;

  Counter* sampled_counter_ = nullptr;
  Counter* hops_counter_ = nullptr;
  Histogram* decode_to_apply_ = nullptr;
};

}  // namespace ipd::obs
