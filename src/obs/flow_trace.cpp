#include "obs/flow_trace.hpp"

#include <cstdlib>
#include <utility>

#include "util/strings.hpp"  // util::format

namespace ipd::obs {

const char* to_string(FlowHopKind kind) noexcept {
  switch (kind) {
    case FlowHopKind::Decode: return "decode";
    case FlowHopKind::RingEnqueue: return "ring_enqueue";
    case FlowHopKind::RingDequeue: return "ring_dequeue";
    case FlowHopKind::ShardRoute: return "shard_route";
    case FlowHopKind::TrieApply: return "trie_apply";
  }
  return "unknown";
}

namespace {

std::uint64_t round_up_pow2(std::uint64_t v) noexcept {
  if (v <= 1) return 1;
  --v;
  for (int shift = 1; shift < 64; shift <<= 1) v |= v >> shift;
  return v + 1;
}

}  // namespace

std::uint64_t FlowTracer::sample_period_from_env(
    std::uint64_t fallback) noexcept {
  const char* raw = std::getenv("IPD_FLOW_SAMPLE");
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(raw, &end, 10);
  if (end == raw || *end != '\0' || parsed == 0) return fallback;
  return static_cast<std::uint64_t>(parsed);
}

FlowTracer::FlowTracer(Config config)
    : sample_period_(round_up_pow2(config.sample_period)), config_(config) {
  // Gate on the top log2(period) bits: sample_gate_ is the low-bit mask
  // (period - 1) shifted up against bit 63. Period 1 gates nothing.
  int bits = 0;
  for (std::uint64_t p = sample_period_; p > 1; p >>= 1) ++bits;
  sample_gate_ = bits == 0 ? 0 : ((sample_period_ - 1) << (64 - bits));
  if (config_.max_flows == 0) config_.max_flows = 1;
  if (config_.max_hops_per_flow == 0) config_.max_hops_per_flow = 1;
}

void FlowTracer::record(std::uint64_t id, FlowHopKind kind,
                        util::Timestamp ts, const net::IpAddress& masked,
                        topology::LinkId link, std::uint32_t detail) noexcept {
  const std::int64_t now_ns = monotonic_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  FlowJourney* journey = nullptr;
  auto it = index_.find(id);
  if (it != index_.end() && it->second >= ring_base_) {
    journey = &ring_[it->second - ring_base_];
  } else {
    if (ring_.size() >= config_.max_flows) {
      index_.erase(ring_.front().id);
      ring_.pop_front();
      ++ring_base_;
      ++journeys_evicted_;
    }
    FlowJourney fresh;
    fresh.id = id;
    fresh.ip = masked;
    fresh.link = link;
    fresh.first_ts = ts;
    fresh.hops.reserve(config_.max_hops_per_flow);
    index_[id] = ring_base_ + ring_.size();
    ring_.push_back(std::move(fresh));
    journey = &ring_.back();
    ++flows_sampled_;
    if (sampled_counter_ != nullptr) sampled_counter_->inc();
  }
  if (journey->hops.size() >= config_.max_hops_per_flow) {
    ++journey->hops_dropped;
    return;
  }
  journey->hops.push_back(FlowHop{kind, detail, ts, now_ns});
  ++hops_recorded_;
  if (hops_counter_ != nullptr) hops_counter_->inc();
  if (kind == FlowHopKind::TrieApply && decode_to_apply_ != nullptr) {
    // End-to-end stage-1 latency: first Decode observation to this apply.
    for (const FlowHop& hop : journey->hops) {
      if (hop.kind == FlowHopKind::Decode) {
        decode_to_apply_->observe(
            static_cast<double>(now_ns - hop.mono_ns) * 1e-9);
        break;
      }
    }
  }
}

void FlowTracer::bind_metrics(MetricsRegistry* registry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (registry == nullptr) {
    sampled_counter_ = nullptr;
    hops_counter_ = nullptr;
    decode_to_apply_ = nullptr;
    return;
  }
  sampled_counter_ = &registry->counter(
      "ipd_flows_sampled_total",
      "Flows selected by deterministic hash sampling (unique journeys)");
  hops_counter_ = &registry->counter(
      "ipd_flow_hops_total", "Pipeline hops recorded for sampled flows");
  decode_to_apply_ = &registry->histogram(
      "ipd_flow_decode_to_apply_seconds",
      "Wall latency from datagram decode to stage-1 trie apply "
      "(sampled flows)",
      Histogram::exponential_bounds(1e-6, 4.0, 12));
}

std::vector<FlowJourney> FlowTracer::journeys(std::size_t limit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t n = ring_.size();
  if (limit != 0 && limit < n) n = limit;
  // Oldest first among the newest `n` journeys.
  std::vector<FlowJourney> out;
  out.reserve(n);
  for (std::size_t i = ring_.size() - n; i < ring_.size(); ++i) {
    out.push_back(ring_[i]);
  }
  return out;
}

std::uint64_t FlowTracer::flows_sampled() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return flows_sampled_;
}

std::uint64_t FlowTracer::hops_recorded() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return hops_recorded_;
}

std::uint64_t FlowTracer::journeys_evicted() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return journeys_evicted_;
}

std::size_t FlowTracer::memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Journeys with their hops, plus the id index (buckets and nodes).
  std::size_t bytes = sizeof(FlowTracer) + ring_.size() * sizeof(FlowJourney);
  for (const FlowJourney& journey : ring_) {
    bytes += journey.hops.capacity() * sizeof(FlowHop);
  }
  bytes += index_.bucket_count() * sizeof(void*) +
           index_.size() * (sizeof(void*) + sizeof(*index_.begin()));
  return bytes;
}

std::string to_json(const FlowJourney& journey,
                    const std::string& decisions_json) {
  std::string out = "{\"id\":\"";
  out += util::format("%016llx",
                      static_cast<unsigned long long>(journey.id));
  out += "\",\"ip\":\"";
  out += journey.ip.to_string();
  out += "\",\"link\":\"";
  out += util::format("%u/%u", static_cast<unsigned>(journey.link.router),
                      static_cast<unsigned>(journey.link.iface));
  out += "\",\"first_ts\":";
  out += std::to_string(journey.first_ts);
  out += ",\"hops_dropped\":";
  out += std::to_string(journey.hops_dropped);
  out += ",\"hops\":[";
  bool first = true;
  for (const FlowHop& hop : journey.hops) {
    if (!first) out += ',';
    first = false;
    out += "{\"stage\":\"";
    out += to_string(hop.kind);
    out += "\",\"detail\":";
    out += std::to_string(hop.detail);
    out += ",\"data_ts\":";
    out += std::to_string(hop.data_ts);
    out += ",\"mono_ns\":";
    out += std::to_string(hop.mono_ns);
    out += '}';
  }
  out += "],\"decisions\":[";
  out += decisions_json;
  out += "]}";
  return out;
}

}  // namespace ipd::obs
