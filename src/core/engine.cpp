#include "core/engine.hpp"

#include <cassert>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <thread>

#include "obs/flow_trace.hpp"
#include "util/strings.hpp"
#include "util/thread.hpp"

namespace ipd::core {

namespace {

constexpr std::array<CyclePhase, kNumCyclePhases> kAllPhases = {
    CyclePhase::Expire, CyclePhase::Classify, CyclePhase::Split,
    CyclePhase::Join, CyclePhase::Compact};

/// The event counted under each phase's `ipd_cycle_events_total` series.
constexpr std::array<const char*, kNumCyclePhases> kPhaseEvent = {
    "drop", "classification", "split", "join", "compaction"};

/// Span names for the per-phase tracer output (string literals: the
/// flight-recorder ring stores the pointers).
constexpr std::array<const char*, kNumCyclePhases> kPhaseSpan = {
    "stage2.expire", "stage2.classify", "stage2.split", "stage2.join",
    "stage2.compact"};

/// Trace-event lane for stage-2 work ("tid" in the Chrome trace model;
/// stage-1 batches use lane 1, see BinnedRunner).
constexpr std::uint32_t kStage2Lane = 2;

constexpr int family_index(net::Family family) noexcept {
  return family == net::Family::V4 ? 0 : 1;
}

constexpr const char* family_label(int index) noexcept {
  return index == 0 ? "v4" : "v6";
}

/// Per-unit sink capacity during the parallel section. Generous: a cycle
/// can't realistically produce a million decisions per subtree, so nothing
/// is ever dropped before the in-order drain into the global logs.
constexpr std::size_t kUnitSinkCapacity = std::size_t{1} << 20;

topology::LinkId link_from_key(std::uint64_t key) noexcept {
  return topology::LinkId{static_cast<topology::RouterId>(key >> 16),
                          static_cast<topology::InterfaceIndex>(key & 0xffff)};
}

}  // namespace

const char* to_string(CyclePhase phase) noexcept {
  switch (phase) {
    case CyclePhase::Expire: return "expire";
    case CyclePhase::Classify: return "classify";
    case CyclePhase::Split: return "split";
    case CyclePhase::Join: return "join";
    case CyclePhase::Compact: return "compact";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// EngineMetrics

EngineMetrics::EngineMetrics(obs::MetricsRegistry& registry)
    : registry_(&registry) {
  for (int f = 0; f < 2; ++f) {
    const obs::Labels family{{"family", family_label(f)}};
    ingest_flows[f] = &registry.counter(
        "ipd_ingest_flows_total", "Flow records ingested (stage 1)", family);
    ingest_weight[f] = &registry.counter(
        "ipd_ingest_weight_total",
        "Sample weight ingested (flows, or bytes in byte mode)", family);
    trie_nodes[f] = &registry.gauge("ipd_trie_nodes",
                                    "Nodes in the range trie", family);
    trie_leaves[f] = &registry.gauge(
        "ipd_trie_leaves", "Leaves (current IPD ranges) in the trie", family);
    trie_memory[f] = &registry.gauge(
        "ipd_trie_memory_bytes",
        "Exact heap usage of the trie (node pool + per-node tables)", family);
  }
  // Cycle wall time spans sub-millisecond toy runs to multi-second
  // deployment cycles (paper Fig. 20): exponential buckets 100 µs .. ~27 min.
  cycle_seconds = &registry.histogram(
      "ipd_cycle_seconds", "Stage-2 cycle wall time",
      obs::Histogram::exponential_bounds(1e-4, 2.0, 24));
  for (const CyclePhase phase : kAllPhases) {
    const auto i = static_cast<std::size_t>(phase);
    phase_seconds[i] = &registry.histogram(
        "ipd_cycle_phase_seconds", "Stage-2 wall time by phase",
        obs::Histogram::exponential_bounds(1e-5, 2.0, 24),
        {{"phase", to_string(phase)}});
    events[i] = &registry.counter("ipd_cycle_events_total",
                                  "Structural events applied by stage 2",
                                  {{"event", kPhaseEvent[i]}});
  }
  cycles_total =
      &registry.counter("ipd_cycles_total", "Stage-2 cycles executed");
  ranges_classified = &registry.gauge(
      "ipd_ranges", "Leaf ranges by state", {{"state", "classified"}});
  ranges_monitoring = &registry.gauge(
      "ipd_ranges", "Leaf ranges by state", {{"state", "monitoring"}});
  tracked_ips = &registry.gauge(
      "ipd_tracked_ips", "Per-IP entries held by monitoring ranges");
  memory_bytes = &registry.gauge(
      "ipd_memory_bytes",
      "Exact trie heap plus observability-layer heap usage");
}

obs::Counter& EngineMetrics::link_counter(topology::LinkId link) {
  auto [it, inserted] = link_counters_.try_emplace(link.key(), nullptr);
  if (inserted) {
    it->second = &registry_->counter(
        "ipd_ingest_link_flows_total", "Flow records ingested per ingress link",
        {{"router", std::to_string(link.router)},
         {"iface", std::to_string(link.iface)}});
  }
  return *it->second;
}

void EngineMetrics::add_ingest_deltas(net::Family family, std::uint64_t flows,
                                      std::uint64_t weight) {
  const int f = family_index(family);
  ingest_flows[f]->inc(flows);
  ingest_weight[f]->inc(weight);
}

// ---------------------------------------------------------------------------
// CycleDeltaLog

void CycleDeltaLog::push(RangeTransition transition) {
  const std::lock_guard<obs::InstrumentedMutex> lock(mutex_);
  ++total_;
  if (items_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  items_.push_back(std::move(transition));
}

std::vector<RangeTransition> CycleDeltaLog::drain() {
  const std::lock_guard<obs::InstrumentedMutex> lock(mutex_);
  std::vector<RangeTransition> out;
  out.swap(items_);
  return out;
}

std::size_t CycleDeltaLog::size() const {
  const std::lock_guard<obs::InstrumentedMutex> lock(mutex_);
  return items_.size();
}

std::uint64_t CycleDeltaLog::total_recorded() const {
  const std::lock_guard<obs::InstrumentedMutex> lock(mutex_);
  return total_;
}

std::uint64_t CycleDeltaLog::dropped() const {
  const std::lock_guard<obs::InstrumentedMutex> lock(mutex_);
  return dropped_;
}

// ---------------------------------------------------------------------------
// WorkerPool

/// Blocking parallel-for over a persistent worker pool. run() executes
/// fn(0..n-1) across the workers plus the calling thread and returns when
/// all items completed. Items are claimed via an atomic counter; stale
/// workers waking late see an exhausted job and go back to sleep, so jobs
/// never bleed into one another.
class WorkerPool {
 public:
  /// `workers` = extra threads to spawn (0 = everything runs inline).
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> completed{0};
  };

  void worker_loop();
  void execute(Job& job);

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::shared_ptr<Job> job_;  // latest posted job (guarded by mutex_)
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

WorkerPool::WorkerPool(int workers) {
  threads_.reserve(static_cast<std::size_t>(std::max(workers, 0)));
  for (int i = 0; i < workers; ++i) {
    threads_.emplace_back([this, i] {
      util::set_current_thread_name(util::format("ipd-shard-%d", i));
      worker_loop();
    });
  }
}

WorkerPool::~WorkerPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::execute(Job& job) {
  std::size_t i;
  while ((i = job.next.fetch_add(1, std::memory_order_relaxed)) < job.n) {
    (*job.fn)(i);
    if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 == job.n) {
      // Last item done: wake the caller. Taking the mutex orders the
      // notify against the caller's wait, so the wakeup cannot be lost.
      const std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void WorkerPool::worker_loop() {
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] {
        return stop_ ||
               (job_ && job_->next.load(std::memory_order_relaxed) < job_->n);
      });
      if (stop_) return;
      job = job_;  // each worker holds its own reference: a stale worker
                   // waking late only ever touches its (exhausted) old job
    }
    execute(*job);
  }
}

void WorkerPool::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job_ = job;
  }
  work_cv_.notify_all();
  execute(*job);  // the calling thread participates
  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&job] {
    return job->completed.load(std::memory_order_acquire) >= job->n;
  });
}

// ---------------------------------------------------------------------------
// IpdEngine

IpdEngine::IpdEngine(IpdParams params, EngineConfig config)
    : params_(params),
      config_(config),
      shard_count_(std::size_t{1} << std::clamp(config.shard_bits, 0, 16)),
      link_cache_bits_(std::max(12 - config.shard_bits, 6)),
      v4_(net::Family::V4),
      v6_(net::Family::V6) {
  if (config_.shard_bits < 0 || config_.shard_bits > 16) {
    throw std::invalid_argument("shard_bits must be in [0, 16]");
  }
  if (config_.ingest_threads < 1) {
    throw std::invalid_argument("ingest_threads must be >= 1");
  }
  params_.validate();
  for (FamilyState* state : {&v4_, &v6_}) {
    state->slots.reserve(shard_count_);
    for (std::size_t i = 0; i < shard_count_; ++i) {
      state->slots.push_back(std::make_unique<Slot>());
    }
    state->owner.assign(shard_count_, 0);
    rebuild_cut(*state);
  }
  pool_ = std::make_unique<WorkerPool>(config_.ingest_threads - 1);
}

IpdEngine::~IpdEngine() = default;

net::Prefix IpdEngine::shard_prefix(net::Family family,
                                    std::size_t index) const {
  return net::Prefix::root(family).nth_subprefix(index, config_.shard_bits);
}

std::size_t IpdEngine::parallel_units(net::Family family) const {
  const std::shared_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  return family_state(family).cut.size();
}

void IpdEngine::attach_metrics(obs::MetricsRegistry& registry) {
  const std::unique_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  metrics_ = std::make_unique<EngineMetrics>(registry);
  // Per-shard stage-1 instruments. Beyond 64 shards the label cardinality
  // stops paying for itself: fall back to one aggregate series.
  shard_queue_delay_.clear();
  shard_flows_.clear();
  const bool per_shard = shard_count_ <= 64;
  const std::size_t slots = per_shard ? shard_count_ : 1;
  for (std::size_t i = 0; i < slots; ++i) {
    const obs::Labels labels{
        {"shard", per_shard ? std::to_string(i) : std::string("all")}};
    shard_queue_delay_.push_back(&registry.histogram(
        "ipd_shard_queue_delay_seconds",
        "Stage-1 fan-out delay: batch bucketing start to the worker "
        "beginning the shard's bucket",
        obs::Histogram::exponential_bounds(1e-6, 4.0, 12), labels));
  }
  if (per_shard) {
    for (const FamilyState* state : {&v4_, &v6_}) {
      const char* fam = family_label(family_index(state->family));
      for (std::size_t i = 0; i < shard_count_; ++i) {
        shard_flows_.push_back(&registry.gauge(
            "ipd_shard_flows",
            "Lifetime flows ingested per shard slot (occupancy skew)",
            obs::Labels{{"family", fam}, {"shard", std::to_string(i)}}));
      }
    }
  }
  // Occupancy distribution and balance summary (both families share the
  // histogram; the imbalance/cut gauges are per family). These read the
  // per-interval deltas measured at every cut republish.
  shard_occupancy_ = &registry.histogram(
      "ipd_shard_occupancy",
      "Flow records routed to one shard slot during one stage-2 interval",
      obs::Histogram::exponential_bounds(1.0, 4.0, 16));
  for (const FamilyState* state : {&v4_, &v6_}) {
    const int f = family_index(state->family);
    const obs::Labels labels{{"family", family_label(f)}};
    shard_imbalance_[f] = &registry.gauge(
        "ipd_shard_imbalance_ratio",
        "Max over mean per-shard flow delta of the last stage-2 interval",
        labels);
    cut_members_[f] = &registry.gauge(
        "ipd_cut_members", "Cut members (stage-2 parallel units)", labels);
  }
  rewire_layers();
}

void IpdEngine::attach_tracer(obs::Tracer& tracer) {
  const std::unique_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  tracer_ = &tracer;
  rewire_layers();
}

void IpdEngine::attach_perf(obs::PerfCounters& perf) {
  const std::unique_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  perf_ = &perf;
  rewire_layers();
}

void IpdEngine::rewire_layers() {
  // No stage-1 span: the runner records one per batch hand-off itself.
  stage1_layer_ = obs::Layer("stage1.ingest", 1, nullptr, nullptr, perf_);
  EngineMetrics* m = metrics_.get();
  cycle_layer_ = obs::Layer("stage2.cycle", kStage2Lane,
                            m ? m->cycle_seconds : nullptr, tracer_, perf_);
  for (std::size_t i = 0; i < kNumCyclePhases; ++i) {
    phase_layers_[i] = obs::Layer(kPhaseSpan[i], kStage2Lane,
                                  m ? m->phase_seconds[i] : nullptr, tracer_,
                                  perf_);
  }
}

void IpdEngine::rebuild_cut(FamilyState& state) {
  // Measure the interval's per-slot load (flows since the previous
  // republish): the occupancy signal behind the load-aware chooser, the
  // ipd_shard_occupancy metrics, and /shards. Flow counts are a pure
  // function of the workload, so the chosen cut — and with it the parallel
  // decomposition — is reproducible run to run.
  if (state.last_flows.size() != shard_count_) {
    state.last_flows.assign(shard_count_, 0);
    state.last_deltas.assign(shard_count_, 0);
  }
  std::uint64_t total_delta = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    const std::uint64_t flows =
        state.slots[i]->flows.load(std::memory_order_relaxed);
    state.last_deltas[i] = flows - state.last_flows[i];
    state.last_flows[i] = flows;
    total_delta += state.last_deltas[i];
  }
  const bool rebalance = config_.rebalance_cut && total_delta > 0 &&
                         config_.rebalance_depth > 0;

  state.cut.clear();
  state.cut_set.clear();
  std::uint32_t next_shard = 0;
  // A member is hot when its slots carried more than rebalance_factor
  // times the fair per-shard share of the family's flows last interval;
  // hot members are expanded below the shard depth so their stage-2 work
  // splits into more parallel units.
  const std::function<void(RangeNode&, int, bool)> emit_member =
      [&](RangeNode& node, int depth, bool hot) {
        if (hot && !node.is_leaf() &&
            depth < config_.shard_bits + config_.rebalance_depth) {
          emit_member(*state.trie.child(node, 0), depth + 1, true);
          emit_member(*state.trie.child(node, 1), depth + 1, true);
          return;
        }
        state.cut.push_back(node.index());
        state.cut_set.insert(node.index());
      };
  // Depth-first in address order: a cut member at depth d <= k covers the
  // next 2^(k - d) shards, all owned by its first shard's slot.
  const std::function<void(RangeNode&, int)> walk = [&](RangeNode& node,
                                                        int depth) {
    if (node.is_leaf() || depth >= config_.shard_bits) {
      const std::uint32_t slot = next_shard;
      const std::uint32_t span = static_cast<std::uint32_t>(
          std::size_t{1} << (config_.shard_bits - depth));
      std::uint64_t member_delta = 0;
      for (std::uint32_t s = 0; s < span; ++s) {
        member_delta += state.last_deltas[next_shard];
        state.owner[next_shard++] = slot;
      }
      const bool hot =
          rebalance && static_cast<double>(member_delta) *
                               static_cast<double>(shard_count_) >
                           config_.rebalance_factor *
                               static_cast<double>(total_delta);
      emit_member(node, depth, hot);
      return;
    }
    walk(*state.trie.child(node, 0), depth + 1);
    walk(*state.trie.child(node, 1), depth + 1);
  };
  walk(state.trie.root(), 0);
  assert(next_shard == shard_count_);
}

// ---------------------------------------------------------------------------
// Stage 1

std::uint64_t IpdEngine::trace_route(util::Timestamp ts,
                                     const net::IpAddress& masked,
                                     topology::LinkId ingress,
                                     std::size_t slot) const noexcept {
  const std::uint64_t id = obs::FlowTracer::flow_id(ts, masked, ingress);
  if (!flow_trace_->sampled(id)) return 0;
  if (flow_trace_synth_decode_) {
    flow_trace_->record(id, obs::FlowHopKind::Decode, ts, masked, ingress);
  }
  flow_trace_->record(id, obs::FlowHopKind::ShardRoute, ts, masked, ingress,
                      static_cast<std::uint32_t>(slot));
  return id;
}

void IpdEngine::ingest(util::Timestamp ts, const net::IpAddress& src_ip,
                       topology::LinkId ingress,
                       std::uint64_t weight) noexcept {
  weight = std::max<std::uint64_t>(weight, 1);
  const std::shared_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  FamilyState& state = family_state(src_ip.family());
  const net::IpAddress masked =
      src_ip.masked(params_.cidr_max(src_ip.family()));
  const std::size_t slot_idx = slot_index(state, masked);
  Slot& slot = *state.slots[slot_idx];
  const std::lock_guard<obs::InstrumentedMutex> guard(slot.mutex);
  state.trie.locate(masked).add_sample(ts, masked, ingress, weight);
  slot.flows.fetch_add(1, std::memory_order_relaxed);
  if (metrics_) {
    ++slot.deltas.flows;
    slot.deltas.weight += weight;
    slot.deltas.count_link(ingress, link_cache_bits_);
  }
  if (flow_trace_) {
    if (const std::uint64_t id = trace_route(ts, masked, ingress, slot_idx)) {
      flow_trace_->record(id, obs::FlowHopKind::TrieApply, ts, masked,
                          ingress, static_cast<std::uint32_t>(slot_idx));
    }
  }
}

std::unique_ptr<IpdEngine::Staging> IpdEngine::acquire_staging() {
  {
    const std::lock_guard<obs::InstrumentedMutex> lock(staging_mutex_);
    if (!staging_pool_.empty()) {
      auto staging = std::move(staging_pool_.back());
      staging_pool_.pop_back();
      return staging;
    }
  }
  auto staging = std::make_unique<Staging>();
  staging->buckets.resize(2 * shard_count_);
  return staging;
}

void IpdEngine::release_staging(std::unique_ptr<Staging> staging) {
  for (const std::uint32_t b : staging->active) staging->buckets[b].clear();
  staging->active.clear();
  const std::lock_guard<obs::InstrumentedMutex> lock(staging_mutex_);
  staging_pool_.push_back(std::move(staging));
}

void IpdEngine::apply_batch(const netflow::FlowBatch& batch) noexcept {
  const std::size_t n = batch.size();
  if (n == 0) return;
  const std::shared_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  // Scope covers the submitting thread only: bucketing plus its share of
  // the fan-out (it participates in pool_->run). Per-bucket scopes would
  // cost two syscalls per cut member per batch — too much; true per-worker
  // attribution comes from the rdpmc samplers during stage 2 instead.
  const obs::Scope scope(stage1_layer_);
  std::unique_ptr<Staging> staging = acquire_staging();
  Staging& st = *staging;
  if (st.masked.size() < n) {  // grow only: rows < n are written first
    st.masked.resize(n);
    st.leaf.resize(n);
    st.ops.resize(n);
  }
  if (flow_trace_ != nullptr) {
    st.flow_id.assign(n, 0);
  } else {
    st.flow_id.clear();
  }
  // Mask every source to cidr_max and bucket rows per cut member in
  // arrival order, so each member sees its rows in exactly the order
  // record-at-a-time ingest would apply them. Bucket layout:
  // [v4 slots][v6 slots]; bucket == owning slot.
  for (std::size_t i = 0; i < n; ++i) {
    const net::IpAddress& src = batch.src_ip[i];
    const net::Family family = src.family();
    const net::IpAddress masked = src.masked(params_.cidr_max(family));
    st.masked[i] = masked;
    const std::size_t slot = slot_index(family_state(family), masked);
    const std::size_t bucket =
        family == net::Family::V4 ? slot : shard_count_ + slot;
    std::vector<std::uint32_t>& rows = st.buckets[bucket];
    if (rows.empty()) st.active.push_back(static_cast<std::uint32_t>(bucket));
    rows.push_back(static_cast<std::uint32_t>(i));
    if (flow_trace_ != nullptr) {
      st.flow_id[i] = trace_route(batch.ts[i], masked, batch.ingress[i], slot);
    }
  }
  // Each bucket writes one leaf and at most one probe per row: its slice
  // of those columns starts after the rows of the buckets before it.
  st.base.clear();
  std::uint32_t base = 0;
  for (const std::uint32_t bucket : st.active) {
    st.base.push_back(base);
    base += static_cast<std::uint32_t>(st.buckets[bucket].size());
  }
  // Queue-delay baseline: the fan-out hand-off point. Workers subtract it
  // when they pick a bucket up, so the histogram captures pool scheduling
  // latency, not the bucket's own trie work.
  const std::int64_t fanout_ns =
      shard_queue_delay_.empty() ? 0 : obs::monotonic_ns();
  pool_->run(st.active.size(), [&](std::size_t a) {
    if (fanout_ns != 0) {
      const std::size_t slot = st.active[a] % shard_count_;
      if (obs::Histogram* hist = queue_delay_hist(slot)) {
        hist->observe(
            static_cast<double>(obs::monotonic_ns() - fanout_ns) * 1e-9);
      }
    }
    apply_bucket(batch, st, a);
  });
  release_staging(std::move(staging));
}

void IpdEngine::apply_bucket(const netflow::FlowBatch& batch, Staging& st,
                             std::size_t active_index) noexcept {
  const std::uint32_t bucket = st.active[active_index];
  FamilyState& state = bucket < shard_count_ ? v4_ : v6_;
  const std::size_t slot_idx =
      bucket < shard_count_ ? bucket : bucket - shard_count_;
  Slot& slot = *state.slots[slot_idx];
  const std::vector<std::uint32_t>& rows = st.buckets[bucket];
  const std::size_t n = rows.size();
  RangeNode** const leaves = st.leaf.data() + st.base[active_index];
  FlatIpTable::ApplyOp* const ops = st.ops.data() + st.base[active_index];
  std::size_t n_ops = 0;
  const bool bytes_mode = params_.count_mode == CountMode::Bytes;
  const std::lock_guard<obs::InstrumentedMutex> guard(slot.mutex);
  // Interleaved read-only descents fill the bucket's leaf slice. Stage 1
  // never splits, so the leaf for a row is the same whether located now
  // or at the row's turn in a record-at-a-time loop.
  state.trie.locate_many(
      n,
      [&](std::size_t k) -> const net::IpAddress& {
        return st.masked[rows[k]];
      },
      [&](std::size_t k, RangeNode& leaf) { leaves[k] = &leaf; });
  // Aggregates in arrival order — the exact per-record effect sequence of
  // ingest() — while the Monitoring rows' per-IP probes are queued for
  // FlatIpTable::apply_many, whose interleaved probe walks overlap the
  // dependent slot loads that dominate this pass (byte-identity is
  // apply_many's contract). The leaf node lines are prefetched a window
  // ahead for the aggregate bumps.
  constexpr std::size_t kNodeAhead = 32;
  std::uint64_t weight_sum = 0;
  const bool count_links = metrics_ != nullptr;
  for (std::size_t k = 0; k < n; ++k) {
    if (k + kNodeAhead < n) __builtin_prefetch(leaves[k + kNodeAhead], 1, 3);
    const std::uint32_t i = rows[k];
    const topology::LinkId ingress = batch.ingress[i];
    // The link-cache line is rarely resident next to the trie's working
    // set: start it loading before the aggregate work.
    if (count_links) {
      __builtin_prefetch(&slot.deltas.entry(ingress, link_cache_bits_), 1, 3);
    }
    const util::Timestamp ts = batch.ts[i];
    const std::uint64_t weight =
        bytes_mode ? std::max<std::uint64_t>(batch.bytes[i], 1) : 1;
    RangeNode& leaf = *leaves[k];
    leaf.add_aggregate(ts, ingress, weight);
    if (leaf.state() == RangeNode::State::Monitoring) {
      ops[n_ops++] = {&leaf.ips(), &st.masked[i], ts, ingress, weight};
    }
    weight_sum += weight;
    if (count_links) slot.deltas.count_link(ingress, link_cache_bits_);
  }
  FlatIpTable::apply_many({ops, n_ops});
  slot.flows.fetch_add(n, std::memory_order_relaxed);
  if (count_links) {
    slot.deltas.flows += n;
    slot.deltas.weight += weight_sum;
  }
  if (!st.flow_id.empty()) {
    for (const std::uint32_t i : rows) {
      if (st.flow_id[i] == 0) continue;
      flow_trace_->record(st.flow_id[i], obs::FlowHopKind::TrieApply,
                          batch.ts[i], st.masked[i], batch.ingress[i],
                          static_cast<std::uint32_t>(slot_idx));
    }
  }
}

// ---------------------------------------------------------------------------
// Stage 2

void IpdEngine::spine_pass(FamilyState& state, RangeNode& node,
                           util::Timestamp now, CycleStats& out,
                           PhaseAccum& phases, const CycleSinks& sinks) {
  // Post-order over the spine only (internal nodes above the cut): every
  // cut member's subtree, and every leaf, already ran inside its member's
  // pass. Membership is tested against the cut itself rather than a fixed
  // depth — the load-aware rebalancer can hold members below the shard
  // depth. This reproduces the tail of the whole-trie post-order walk,
  // including same-cycle join cascades up the spine.
  if (node.state() != RangeNode::State::Internal ||
      state.cut_set.count(node.index()) != 0) {
    return;
  }
  spine_pass(state, *state.trie.child(node, 0), now, out, phases, sinks);
  spine_pass(state, *state.trie.child(node, 1), now, out, phases, sinks);
  join_or_compact(state.trie, node, params_, now, out, phases, sinks);
}

void IpdEngine::cycle_family(FamilyState& state, util::Timestamp now,
                             CycleStats& out, PhaseAccum& phases) {
  const CycleSinks global_sinks{decision_log_, cycle_deltas_};
  const std::size_t units = state.cut.size();
  if (units <= 1) {
    // One unit means the cut is the root itself (unrefined family, or
    // shard_bits == 0): the plain post-order pass, global sinks inline.
    cycle_over_trie(state.trie, params_, now, out, phases, global_sinks);
    rebuild_cut(state);
    return;
  }

  // Parallel per-unit cycles. Decisions and transitions go to per-unit
  // buffers so the parallel section never contends on the global logs,
  // then drain in cut (address) order for a deterministic sequence.
  struct UnitResult {
    CycleStats stats;
    PhaseAccum phases;
    std::unique_ptr<DecisionLog> decisions;
    std::unique_ptr<CycleDeltaLog> transitions;
  };
  std::vector<UnitResult> results(units);
  for (UnitResult& r : results) {
    r.phases.enabled = phases.enabled;
    if (decision_log_) {
      r.decisions = std::make_unique<DecisionLog>(kUnitSinkCapacity);
    }
    if (cycle_deltas_) {
      r.transitions = std::make_unique<CycleDeltaLog>(kUnitSinkCapacity);
    }
  }
  pool_->run(units, [&](std::size_t i) {
    // thread_sampler() binds to the *executing* thread (worker or caller),
    // so each unit's rdpmc reads hit that thread's own counter group.
    if (perf_ != nullptr) results[i].phases.sampler = perf_->thread_sampler();
    const CycleSinks sinks{results[i].decisions.get(),
                           results[i].transitions.get()};
    cycle_over_subtree(state.trie, state.trie.node(state.cut[i]), params_, now,
                       results[i].stats, results[i].phases, sinks);
  });
  for (UnitResult& r : results) {
    out.classifications += r.stats.classifications;
    out.splits += r.stats.splits;
    out.joins += r.stats.joins;
    out.drops += r.stats.drops;
    out.compactions += r.stats.compactions;
    for (std::size_t p = 0; p < kNumCyclePhases; ++p) {
      phases.ns[p] += r.phases.ns[p];
      phases.perf[p].cycles += r.phases.perf[p].cycles;
      phases.perf[p].instructions += r.phases.perf[p].instructions;
      phases.perf[p].llc_misses += r.phases.perf[p].llc_misses;
    }
    if (r.decisions) {
      for (DecisionEvent event : r.decisions->snapshot()) {
        decision_log_->record(event);  // re-stamps the global sequence
      }
    }
    if (r.transitions) {
      for (RangeTransition& t : r.transitions->drain()) {
        cycle_deltas_->push(std::move(t));
      }
    }
  }

  // Cross-unit merge: the whole-trie walk's spine tail (join/compact over
  // internal nodes above the cut, post-order so joins cascade), then
  // re-derive the cut from whatever the cycle did to the top k levels.
  spine_pass(state, state.trie.root(), now, out, phases, global_sinks);
  rebuild_cut(state);
}

CycleStats IpdEngine::run_cycle(util::Timestamp now) {
  const std::unique_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  obs::Scope cycle(cycle_layer_, /*always_time=*/true);
  CycleStats out;
  out.now = now;
  // The phase layers share one sink set; a live sampler implies available
  // counters, so the perf sink alone keeps phase timing on.
  PhaseAccum phases;
  phases.enabled = phase_layers_[0].active();
  if (perf_ != nullptr) {
    // Calling-thread sampler covers the single-unit path and spine passes;
    // workers pick up their own inside cycle_family.
    phases.sampler = perf_->thread_sampler();
  }
  cycle_family(v4_, now, out, phases);
  cycle_family(v6_, now, out, phases);

  // Partition census after all structural changes: one walk per family,
  // whose totals the metric gauges reuse.
  std::array<TrieCensus, 2> census;
  for (const FamilyState* state : {&v4_, &v6_}) {
    const TrieCensus& c = census[family_index(state->family)] =
        state->trie.census();
    out.ranges_total += c.classified + c.monitoring;
    out.ranges_classified += c.classified;
    out.ranges_monitoring += c.monitoring;
    out.tracked_ips += c.tracked_ips;
    out.memory_bytes += c.memory_bytes;
  }
  // Honest resource accounting: the observability layers themselves occupy
  // heap. (The runner additionally adds its validation bin buffer.)
  if (metrics_) out.memory_bytes += metrics_->registry().memory_bytes();
  if (decision_log_) out.memory_bytes += decision_log_->memory_bytes();
  if (tracer_) out.memory_bytes += tracer_->memory_bytes();
  if (perf_) out.memory_bytes += perf_->memory_bytes();

  // Phase time is accumulated across the whole tree walk (and summed over
  // workers), not contiguous intervals: lay the totals end to end from the
  // cycle start, in whole microseconds so that on one thread every phase
  // span ends inside the cycle span.
  std::int64_t cursor = cycle.start_ns();
  for (std::size_t i = 0; i < kNumCyclePhases; ++i) {
    out.phase_micros[i] = phases.ns[i] / 1000;
    phase_layers_[i].record(cursor, phases.ns[i],
                            phases.sampler ? &phases.perf[i] : nullptr);
    cursor += out.phase_micros[i] * 1000;
  }
  out.cycle_micros =
      cycle.close({{"classifications", static_cast<double>(out.classifications)},
                   {"splits", static_cast<double>(out.splits)},
                   {"joins", static_cast<double>(out.joins)},
                   {"drops", static_cast<double>(out.drops)}}) / 1000;
  cycles_run_.fetch_add(1, std::memory_order_relaxed);
  total_classifications_.fetch_add(out.classifications,
                                   std::memory_order_relaxed);
  total_splits_.fetch_add(out.splits, std::memory_order_relaxed);
  total_joins_.fetch_add(out.joins, std::memory_order_relaxed);
  total_drops_.fetch_add(out.drops, std::memory_order_relaxed);
  if (metrics_) publish_cycle_metrics(out, census);
  return out;
}

// ---------------------------------------------------------------------------
// Read surface

EngineStats IpdEngine::stats() const noexcept {
  // Flow counters are cumulative per slot and slots never move, so the sum
  // is the lifetime total without taking the structure lock.
  EngineStats out;
  for (const FamilyState* state : {&v4_, &v6_}) {
    for (const auto& slot : state->slots) {
      out.flows_ingested += slot->flows.load(std::memory_order_relaxed);
    }
  }
  out.cycles_run = cycles_run_.load(std::memory_order_relaxed);
  out.total_classifications =
      total_classifications_.load(std::memory_order_relaxed);
  out.total_splits = total_splits_.load(std::memory_order_relaxed);
  out.total_joins = total_joins_.load(std::memory_order_relaxed);
  out.total_drops = total_drops_.load(std::memory_order_relaxed);
  return out;
}

void IpdEngine::for_each_leaf(
    net::Family family,
    const std::function<void(const RangeNode&)>& fn) const {
  const std::shared_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  const FamilyState& state = family_state(family);
  // Cut order == address order, so concatenating the per-member in-order
  // walks (each under its slot's mutex, shutting out that member's
  // writers) yields the whole trie's leaf order.
  for (const NodeIndex index : state.cut) {
    const RangeNode& member = state.trie.node(index);
    const std::size_t slot = shard_index(member.prefix().address());
    const std::lock_guard<obs::InstrumentedMutex> guard(state.slots[slot]->mutex);
    state.trie.for_each_leaf_from(member, fn);
  }
}

std::string IpdEngine::shards_json() const {
  const std::shared_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  std::string out = "{";
  out += util::format("\"shard_bits\":%d,", config_.shard_bits);
  out += util::format("\"shard_count\":%zu,", shard_count_);
  out += util::format("\"rebalance_cut\":%s,",
                      config_.rebalance_cut ? "true" : "false");
  out += util::format("\"rebalance_factor\":%g,", config_.rebalance_factor);
  out += util::format("\"rebalance_depth\":%d,", config_.rebalance_depth);
  out += "\"families\":[";
  bool first_family = true;
  for (const FamilyState* state : {&v4_, &v6_}) {
    if (!first_family) out += ",";
    first_family = false;
    out += util::format("{\"family\":\"%s\",",
                        family_label(family_index(state->family)));
    std::uint64_t total = 0;
    std::uint64_t max_delta = 0;
    out += "\"slots\":[";
    for (std::size_t i = 0; i < shard_count_; ++i) {
      const std::uint64_t delta =
          i < state->last_deltas.size() ? state->last_deltas[i] : 0;
      total += delta;
      max_delta = std::max(max_delta, delta);
      out += util::format(
          "%s{\"slot\":%zu,\"flows\":%llu,\"interval_flows\":%llu}",
          i == 0 ? "" : ",", i,
          static_cast<unsigned long long>(
              state->slots[i]->flows.load(std::memory_order_relaxed)),
          static_cast<unsigned long long>(delta));
    }
    out += "],";
    const double mean =
        static_cast<double>(total) / static_cast<double>(shard_count_);
    out += util::format(
        "\"imbalance_ratio\":%g,",
        mean > 0.0 ? static_cast<double>(max_delta) / mean : 1.0);
    out += "\"cut_members\":[";
    for (std::size_t i = 0; i < state->cut.size(); ++i) {
      const RangeNode& member = state->trie.node(state->cut[i]);
      const std::size_t slot = state->owner.empty()
                                   ? 0
                                   : state->owner[shard_index(
                                         member.prefix().address())];
      out += util::format(
          "%s{\"prefix\":\"%s\",\"depth\":%d,\"slot\":%zu,"
          "\"leaf\":%s}",
          i == 0 ? "" : ",",
          util::json_escape(member.prefix().to_string()).c_str(),
          member.prefix().length(), slot,
          member.is_leaf() ? "true" : "false");
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

const RangeNode& IpdEngine::locate(const net::IpAddress& ip) const {
  const std::shared_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  const FamilyState& state = family_state(ip.family());
  const net::IpAddress masked = ip.masked(params_.cidr_max(ip.family()));
  Slot& slot = *state.slots[slot_index(state, masked)];
  const std::lock_guard<obs::InstrumentedMutex> guard(slot.mutex);
  return const_cast<IpdTrie&>(state.trie).locate(masked);
}

// ---------------------------------------------------------------------------
// Metrics plumbing

void IpdEngine::flush_deltas_locked() {
  // Caller holds the exclusive structure lock, so no slot mutexes are
  // needed: no ingest can be in flight.
  std::size_t gauge = 0;
  for (FamilyState* state : {&v4_, &v6_}) {
    for (const auto& slot : state->slots) {
      IngestDeltas& deltas = slot->deltas;
      if (deltas.flows != 0) {
        metrics_->add_ingest_deltas(state->family, deltas.flows,
                                    deltas.weight);
        deltas.flows = 0;
        deltas.weight = 0;
      }
      if (deltas.links) {
        for (std::size_t i = 0; i < std::size_t{1} << link_cache_bits_; ++i) {
          IngestDeltas::LinkCount& e = deltas.links[i];
          if (e.tag == 0) continue;
          metrics_->link_counter(link_from_key(e.tag - 1)).inc(e.count);
          e = {};
        }
      }
      for (const auto& [key, count] : deltas.overflow) {
        metrics_->link_counter(link_from_key(key)).inc(count);
      }
      deltas.overflow.clear();
      if (gauge < shard_flows_.size()) {
        shard_flows_[gauge]->set(static_cast<double>(
            slot->flows.load(std::memory_order_relaxed)));
      }
      ++gauge;
    }
  }
}

void IpdEngine::flush_ingest_metrics() {
  const std::unique_lock<obs::InstrumentedSharedMutex> lock(structure_mutex_);
  if (metrics_) flush_deltas_locked();
}

void IpdEngine::publish_cycle_metrics(
    const CycleStats& out, const std::array<TrieCensus, 2>& census) {
  // Cycle and phase timings reach the histograms through their layers.
  EngineMetrics& m = *metrics_;
  flush_deltas_locked();
  m.cycles_total->inc();
  m.events[static_cast<std::size_t>(CyclePhase::Expire)]->inc(out.drops);
  m.events[static_cast<std::size_t>(CyclePhase::Classify)]->inc(
      out.classifications);
  m.events[static_cast<std::size_t>(CyclePhase::Split)]->inc(out.splits);
  m.events[static_cast<std::size_t>(CyclePhase::Join)]->inc(out.joins);
  m.events[static_cast<std::size_t>(CyclePhase::Compact)]->inc(
      out.compactions);
  for (const FamilyState* state : {&v4_, &v6_}) {
    const int f = family_index(state->family);
    m.trie_nodes[f]->set(static_cast<double>(state->trie.node_count()));
    m.trie_leaves[f]->set(static_cast<double>(state->trie.leaf_count()));
    m.trie_memory[f]->set(static_cast<double>(census[f].memory_bytes));
    // Occupancy + balance from the deltas measured at this cycle's cut
    // republish.
    std::uint64_t total = 0;
    std::uint64_t max_delta = 0;
    for (const std::uint64_t d : state->last_deltas) {
      shard_occupancy_->observe(static_cast<double>(d));
      total += d;
      max_delta = std::max(max_delta, d);
    }
    const double mean = static_cast<double>(total) /
                        static_cast<double>(std::max<std::size_t>(
                            state->last_deltas.size(), 1));
    shard_imbalance_[f]->set(mean > 0.0 ? static_cast<double>(max_delta) / mean
                                        : 1.0);
    cut_members_[f]->set(static_cast<double>(state->cut.size()));
  }
  m.ranges_classified->set(static_cast<double>(out.ranges_classified));
  m.ranges_monitoring->set(static_cast<double>(out.ranges_monitoring));
  m.tracked_ips->set(static_cast<double>(out.tracked_ips));
  m.memory_bytes->set(static_cast<double>(out.memory_bytes));
}

}  // namespace ipd::core
