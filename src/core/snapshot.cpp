#include "core/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <shared_mutex>
#include <utility>

#include "core/engine.hpp"
#include "obs/build_info.hpp"

namespace ipd::core {

using util::ByteReader;
using util::ByteWriter;
using util::SnapshotErrc;
using util::SnapshotError;

namespace {

[[noreturn]] void bad(const std::string& message) {
  throw SnapshotError(SnapshotErrc::kBadValue, message);
}

// Cap every decoded capacity/length field: corruption the CRC somehow
// missed (or a hand-crafted file) must not be able to request an
// arbitrarily large allocation before structural validation runs.
constexpr std::uint64_t kMaxReasonable = std::uint64_t{1} << 30;

std::uint64_t checked_len(std::uint64_t v, const char* what) {
  if (v > kMaxReasonable) {
    bad(std::string(what) + " implausibly large (" + std::to_string(v) + ")");
  }
  return v;
}

void put_link(ByteWriter& out, topology::LinkId link) {
  out.u32(link.router);
  out.u16(link.iface);
}

topology::LinkId get_link(ByteReader& in) {
  topology::LinkId link;
  link.router = in.u32();
  link.iface = in.u16();
  return link;
}

void put_address(ByteWriter& out, const net::IpAddress& addr) {
  out.u64(addr.hi());
  out.u64(addr.lo());
}

net::IpAddress get_address(ByteReader& in, net::Family family) {
  const std::uint64_t hi = in.u64();
  const std::uint64_t lo = in.u64();
  if (family == net::Family::V4) {
    if (hi != 0 || lo > 0xffffffffull) bad("v4 address out of range");
    return net::IpAddress::v4(static_cast<std::uint32_t>(lo));
  }
  return net::IpAddress::v6(hi, lo);
}

void put_prefix(ByteWriter& out, const net::Prefix& prefix) {
  out.u8(prefix.family() == net::Family::V4 ? 4 : 6);
  out.u8(static_cast<std::uint8_t>(prefix.length()));
  put_address(out, prefix.address());
}

net::Prefix get_prefix(ByteReader& in) {
  const std::uint8_t fam = in.u8();
  if (fam != 4 && fam != 6) bad("unknown address family tag");
  const net::Family family = fam == 4 ? net::Family::V4 : net::Family::V6;
  const int len = in.u8();
  const net::IpAddress addr = get_address(in, family);
  net::Prefix prefix;
  try {
    prefix = net::Prefix(addr, len);
  } catch (const std::exception& e) {
    bad(std::string("invalid prefix: ") + e.what());
  }
  // The writer stores canonical network addresses; a host bit set here
  // means the payload was not produced by this writer.
  if (prefix.address() != addr) bad("prefix address has host bits set");
  return prefix;
}

void put_ingress(ByteWriter& out, const IngressId& ingress) {
  out.u32(ingress.router);
  out.u64(ingress.ifaces.capacity());
  out.u32(static_cast<std::uint32_t>(ingress.ifaces.size()));
  for (const topology::InterfaceIndex iface : ingress.ifaces) out.u16(iface);
}

IngressId get_ingress(ByteReader& in) {
  IngressId ingress;
  ingress.router = in.u32();
  const std::uint64_t cap = checked_len(in.u64(), "ingress iface capacity");
  const std::uint32_t n =
      static_cast<std::uint32_t>(checked_len(in.u32(), "ingress iface count"));
  if (cap < n) bad("ingress iface capacity below size");
  ingress.ifaces.reserve(static_cast<std::size_t>(cap));
  for (std::uint32_t i = 0; i < n; ++i) {
    const topology::InterfaceIndex iface = in.u16();
    if (i > 0 && iface <= ingress.ifaces.back()) {
      bad("ingress ifaces not strictly ascending");
    }
    ingress.ifaces.push_back(iface);
  }
  return ingress;
}

struct Meta {
  bool sharded = false;
  int shard_bits = 0;
  SnapshotClock clock;
  EngineStats stats;
  std::uint64_t params_hash = 0;
  std::string build_info;
};

std::string encode_meta(const Meta& meta) {
  ByteWriter out;
  out.u8(meta.sharded ? 1 : 0);
  out.u32(static_cast<std::uint32_t>(meta.shard_bits));
  out.i64(meta.clock.saved_at);
  out.i64(meta.clock.next_cycle);
  out.i64(meta.clock.next_snapshot);
  out.u64(meta.stats.flows_ingested);
  out.u64(meta.stats.cycles_run);
  out.u64(meta.stats.total_classifications);
  out.u64(meta.stats.total_splits);
  out.u64(meta.stats.total_joins);
  out.u64(meta.stats.total_drops);
  out.u64(meta.params_hash);
  out.str(meta.build_info);
  return std::move(out).take();
}

Meta decode_meta(std::string_view payload) {
  ByteReader in(payload);
  Meta meta;
  const std::uint8_t sharded = in.u8();
  if (sharded > 1) bad("meta engine-kind flag out of range");
  meta.sharded = sharded == 1;
  meta.shard_bits = static_cast<int>(in.u32());
  if (meta.shard_bits < 0 || meta.shard_bits > 16) {
    bad("meta shard_bits out of range");
  }
  meta.clock.saved_at = in.i64();
  meta.clock.next_cycle = in.i64();
  meta.clock.next_snapshot = in.i64();
  meta.stats.flows_ingested = in.u64();
  meta.stats.cycles_run = in.u64();
  meta.stats.total_classifications = in.u64();
  meta.stats.total_splits = in.u64();
  meta.stats.total_joins = in.u64();
  meta.stats.total_drops = in.u64();
  meta.params_hash = in.u64();
  meta.build_info = std::string(in.str());
  in.expect_done();
  return meta;
}

}  // namespace

std::string encode_params(const IpdParams& params) {
  ByteWriter out;
  out.u32(static_cast<std::uint32_t>(params.cidr_max4));
  out.u32(static_cast<std::uint32_t>(params.cidr_max6));
  out.f64(params.ncidr_factor4);
  out.f64(params.ncidr_factor6);
  out.f64(params.q);
  out.i64(params.t);
  out.i64(params.e);
  out.f64(params.ncidr_floor);
  out.u8(params.enable_bundles ? 1 : 0);
  out.f64(params.bundle_member_min_share);
  out.u8(params.enable_joins ? 1 : 0);
  out.u8(static_cast<std::uint8_t>(params.count_mode));
  out.f64(params.min_keep_samples);
  out.f64(params.drop_below_ncidr_fraction);
  out.i64(params.drop_after);
  return std::move(out).take();
}

std::uint64_t params_hash(const IpdParams& params) {
  const std::string bytes = encode_params(params);
  return util::crc64(bytes.data(), bytes.size());
}

namespace {

IpdParams decode_params(std::string_view payload) {
  ByteReader in(payload);
  IpdParams params;
  params.cidr_max4 = static_cast<int>(in.u32());
  params.cidr_max6 = static_cast<int>(in.u32());
  params.ncidr_factor4 = in.f64();
  params.ncidr_factor6 = in.f64();
  params.q = in.f64();
  params.t = in.i64();
  params.e = in.i64();
  params.ncidr_floor = in.f64();
  const std::uint8_t bundles = in.u8();
  const double bundle_share = in.f64();
  const std::uint8_t joins = in.u8();
  const std::uint8_t mode = in.u8();
  params.min_keep_samples = in.f64();
  params.drop_below_ncidr_fraction = in.f64();
  params.drop_after = in.i64();
  in.expect_done();
  if (bundles > 1 || joins > 1 || mode > 1) bad("params flag out of range");
  params.enable_bundles = bundles == 1;
  params.bundle_member_min_share = bundle_share;
  params.enable_joins = joins == 1;
  params.count_mode = static_cast<CountMode>(mode);
  try {
    params.validate();
  } catch (const std::exception& e) {
    bad(std::string("snapshot params invalid: ") + e.what());
  }
  return params;
}

}  // namespace

/// Privileged serializer: the one place allowed to read and reproduce the
/// private layout of the engine's state-bearing types (friended from
/// RangeNode/IpdTrie/FlatIpTable/IngressCounts/IpdEngine).
struct SnapshotAccess {
  using NodePool = IpdTrie::NodePool;
  using Index = NodePool::Index;

  /// A decoded trie staged in a fresh pool, not yet owned by any engine.
  /// Dropping it before adoption destroys every staged node cleanly.
  struct StagedTrie {
    net::Family family;
    std::unique_ptr<NodePool> pool;
    std::vector<Index> live;  // constructed node indices (for cleanup)
    std::size_t nodes = 0;
    std::size_t leaves = 0;

    explicit StagedTrie(net::Family f)
        : family(f), pool(std::make_unique<NodePool>()) {}
    StagedTrie(StagedTrie&&) = default;
    StagedTrie& operator=(StagedTrie&&) = default;
    ~StagedTrie() {
      if (pool) {
        for (const Index index : live) pool->free(index);
      }
    }
  };

  // --- encode ----------------------------------------------------------

  static void encode_counts(ByteWriter& out, const IngressCounts& counts) {
    out.u64(counts.entries_.capacity());
    out.u32(static_cast<std::uint32_t>(counts.entries_.size()));
    for (const auto& [link, value] : counts.entries_) {
      put_link(out, link);
      out.f64(value);
    }
    // total_ is an order-dependent float sum — transported bit-exactly, not
    // recomputed, so share_of() thresholds behave identically after restore.
    out.f64(counts.total_);
  }

  static void encode_ip_table(ByteWriter& out, const FlatIpTable& table) {
    out.u64(table.capacity_);
    out.u64(table.size_);
    for (std::size_t i = 0; i < table.capacity_; ++i) {
      const FlatIpTable::Slot& slot = table.slots_[i];
      if (!slot.used) continue;
      // Exact slot placement: iteration order is slot order and feeds the
      // split redistribution sequence, so probe-equivalent placement is
      // not enough — the restored table must be positionally identical.
      // Placement follows the writer's insert path, not the data alone:
      // split sizes each child table once at its final capacity, which
      // places entries differently from growing it by doubling. No
      // fixture pins placement across builds; restore reproduces whatever
      // the writer held.
      out.u64(i);
      put_address(out, slot.kv.first);
      const IpEntry& entry = slot.kv.second;
      out.i64(entry.last_seen);
      out.u64(entry.total);
      out.u64(entry.counts.capacity());
      out.u32(static_cast<std::uint32_t>(entry.counts.size()));
      for (const auto& [link, c] : entry.counts) {
        put_link(out, link);
        out.u64(c);
      }
    }
  }

  static std::string encode_trie(const IpdTrie& trie,
                                 std::vector<LpmRow>* lpm_rows) {
    ByteWriter out;
    out.u64(trie.pool_->high_water());
    const std::vector<Index> chain = trie.pool_->free_chain();
    out.u32(static_cast<std::uint32_t>(chain.size()));
    for (const Index index : chain) out.u32(index);

    // Pre-order DFS, low child first — leaves come out in address order
    // (the LPM rows ride along from the same walk).
    std::vector<Index> order;
    std::vector<Index> stack{trie.root_};
    while (!stack.empty()) {
      const Index index = stack.back();
      stack.pop_back();
      order.push_back(index);
      const RangeNode& node = trie.node(index);
      if (node.state_ == RangeNode::State::Internal) {
        stack.push_back(node.child1_);
        stack.push_back(node.child0_);
      }
    }
    out.u64(order.size());
    for (const Index index : order) {
      const RangeNode& node = trie.node(index);
      out.u32(node.self_);
      out.u32(node.parent_);
      out.u32(node.child0_);
      out.u32(node.child1_);
      out.u8(static_cast<std::uint8_t>(node.state_));
      put_prefix(out, node.prefix_);
      out.i64(node.last_update_);
      out.i64(node.classified_at_);
      put_ingress(out, node.ingress_);
      encode_counts(out, node.counts_);
      encode_ip_table(out, node.ips_);
      if (lpm_rows != nullptr &&
          node.state_ == RangeNode::State::Classified) {
        lpm_rows->push_back({node.prefix_, node.ingress_});
      }
    }
    return std::move(out).take();
  }

  // --- decode ----------------------------------------------------------

  static void decode_counts(ByteReader& in, IngressCounts& counts) {
    const std::uint64_t cap = checked_len(in.u64(), "counts capacity");
    const std::uint32_t n =
        static_cast<std::uint32_t>(checked_len(in.u32(), "counts size"));
    if (cap < n || cap < 2) bad("counts capacity below size or inline min");
    counts.entries_.reserve(static_cast<std::size_t>(cap));
    std::uint64_t prev_key = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const topology::LinkId link = get_link(in);
      const double value = in.f64();
      if (i > 0 && link.key() <= prev_key) {
        bad("ingress counters not strictly ascending by link");
      }
      prev_key = link.key();
      counts.entries_.push_back({link, value});
    }
    counts.total_ = in.f64();
  }

  static void decode_ip_table(ByteReader& in, FlatIpTable& table,
                              net::Family family) {
    const std::uint64_t capacity = checked_len(in.u64(), "ip-table capacity");
    const std::uint64_t size = in.u64();
    if (capacity == 0) {
      if (size != 0) bad("ip-table entries without capacity");
      return;
    }
    if (capacity < FlatIpTable::kMinCapacity ||
        (capacity & (capacity - 1)) != 0) {
      bad("ip-table capacity not a power of two >= 8");
    }
    if (4 * size > 3 * capacity) bad("ip-table over load factor");
    table.slots_ = FlatIpTable::allocate_slots(capacity);
    table.capacity_ = static_cast<std::size_t>(capacity);
    table.size_ = static_cast<std::size_t>(size);
    for (std::uint64_t i = 0; i < size; ++i) {
      const std::uint64_t slot_index = in.u64();
      if (slot_index >= capacity) bad("ip-table slot index out of range");
      FlatIpTable::Slot& slot = table.slots_[slot_index];
      if (slot.used) bad("ip-table duplicate slot index");
      slot.kv.first = get_address(in, family);
      IpEntry& entry = slot.kv.second;
      entry.last_seen = in.i64();
      entry.total = in.u64();
      const std::uint64_t cap = checked_len(in.u64(), "ip-entry capacity");
      const std::uint32_t n =
          static_cast<std::uint32_t>(checked_len(in.u32(), "ip-entry size"));
      if (cap < n || cap < 2) bad("ip-entry capacity below size");
      entry.counts.reserve(static_cast<std::size_t>(cap));
      for (std::uint32_t k = 0; k < n; ++k) {
        const topology::LinkId link = get_link(in);
        const std::uint64_t count = in.u64();
        // Expiry subtracts these from the aggregate as doubles, which is
        // exact only for counts in [1, 2^53).
        if (count == 0 || count >= IngressCounts::kExactLimit) {
          bad("per-IP count outside [1, 2^53)");
        }
        entry.counts.push_back({link, count});
      }
      table.spilled_bytes_ += entry.counts.heap_bytes();
      slot.used = true;
    }
  }

  static StagedTrie decode_trie(std::string_view payload, net::Family family) {
    ByteReader in(payload);
    const std::uint64_t high_water = checked_len(in.u64(), "pool high-water");
    if (high_water < 1) bad("trie has no nodes");

    const std::uint32_t free_count =
        static_cast<std::uint32_t>(checked_len(in.u32(), "free-chain length"));
    std::vector<Index> chain(free_count);
    // 0 = unseen, 1 = free, 2 = live node record.
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(high_water), 0);
    for (std::uint32_t i = 0; i < free_count; ++i) {
      const Index index = in.u32();
      if (index >= high_water) bad("free index beyond high water");
      if (seen[index] != 0) bad("free index duplicated");
      seen[index] = 1;
      chain[i] = index;
    }

    const std::uint64_t node_count = checked_len(in.u64(), "node count");
    if (free_count + node_count != high_water) {
      bad("free + live slots do not partition the arena");
    }

    StagedTrie staged(family);
    staged.pool->restore_layout(static_cast<std::size_t>(high_water), chain);

    struct Children {
      Index child0;
      Index child1;
      RangeNode::State state;
    };
    std::vector<Children> shape(static_cast<std::size_t>(high_water));
    staged.live.reserve(static_cast<std::size_t>(node_count));

    for (std::uint64_t rec = 0; rec < node_count; ++rec) {
      const Index self = in.u32();
      const Index parent = in.u32();
      const Index child0 = in.u32();
      const Index child1 = in.u32();
      const std::uint8_t state_raw = in.u8();
      if (self >= high_water) bad("node index beyond high water");
      if (seen[self] == 1) bad("node index collides with free chain");
      if (seen[self] == 2) bad("node index duplicated");
      if (state_raw > 2) bad("node state out of range");
      const auto state = static_cast<RangeNode::State>(state_raw);
      const net::Prefix prefix = get_prefix(in);
      if (prefix.family() != family) bad("node family mismatch");

      // Construct in place, then fill the private fields the public
      // constructor does not cover.
      staged.pool->construct_at(self, prefix, self, parent);
      seen[self] = 2;
      staged.live.push_back(self);
      RangeNode& node = (*staged.pool)[self];
      node.state_ = state;
      node.last_update_ = in.i64();
      node.classified_at_ = in.i64();
      node.ingress_ = get_ingress(in);
      decode_counts(in, node.counts_);
      decode_ip_table(in, node.ips_, family);

      const bool internal = state == RangeNode::State::Internal;
      if (internal) {
        if (child0 >= high_water || child1 >= high_water || child0 == child1) {
          bad("internal node with invalid children");
        }
        if (prefix.length() >= prefix.width()) {
          bad("internal node at full prefix width");
        }
        node.child0_ = child0;
        node.child1_ = child1;
        node.child_off_[0] = offset_of(child0);
        node.child_off_[1] = offset_of(child1);
        if (!node.ips_.empty() || !node.counts_.empty()) {
          bad("internal node carries leaf state");
        }
      } else {
        if (child0 != kInvalidNode || child1 != kInvalidNode) {
          bad("leaf node with children");
        }
        ++staged.leaves;
      }
      if (state == RangeNode::State::Classified) {
        if (!node.ingress_.valid()) bad("classified node without ingress");
        if (!node.ips_.empty()) bad("classified node with per-IP detail");
      }
      // Expiry subtracts departing entries from the aggregate, which is
      // only sound when the aggregate is their exact sum, below 2^53, and
      // holds the capacity a rebuild would (memory_bytes() is exact).
      if (state == RangeNode::State::Monitoring) {
        const IngressCounts rebuilt = node.rebuilt_counts();
        if (!node.counts_.bit_equal(rebuilt) ||
            node.counts_.memory_bytes() != rebuilt.memory_bytes()) {
          bad("monitoring counters disagree with per-IP detail");
        }
        if (!(node.counts_.total() <
              static_cast<double>(IngressCounts::kExactLimit))) {
          bad("monitoring counters beyond 2^53");
        }
      }
      shape[self] = {child0, child1, state};
    }
    in.expect_done();
    staged.nodes = static_cast<std::size_t>(node_count);

    // Structural walk: every record reachable from the root exactly once,
    // child prefixes and parent back-pointers consistent. A cycle or an
    // orphan record fails here, before any engine is touched.
    if (seen[0] != 2) bad("root slot is not a live node");
    {
      const RangeNode& root = (*staged.pool)[0];
      if (root.parent_ != kInvalidNode || root.prefix_.length() != 0) {
        bad("node 0 is not a root");
      }
    }
    std::vector<std::uint8_t> visited(static_cast<std::size_t>(high_water), 0);
    std::vector<Index> stack{0};
    std::uint64_t reached = 0;
    while (!stack.empty()) {
      const Index index = stack.back();
      stack.pop_back();
      if (seen[index] != 2) bad("edge to a non-live slot");
      if (visited[index]) bad("node reachable twice (cycle or shared child)");
      visited[index] = 1;
      ++reached;
      const Children& c = shape[index];
      if (c.state != RangeNode::State::Internal) continue;
      const RangeNode& node = (*staged.pool)[index];
      for (int bit = 0; bit < 2; ++bit) {
        const Index child = bit ? c.child1 : c.child0;
        // Liveness before dereference: a child edge into a free-chain slot
        // would otherwise read reinterpreted free-list bytes.
        if (seen[child] != 2) bad("edge to a non-live slot");
        const RangeNode& child_node = (*staged.pool)[child];
        if (child_node.parent_ != index) bad("child parent pointer mismatch");
        if (child_node.prefix_ != node.prefix_.child(bit)) {
          bad("child prefix does not match its edge");
        }
        stack.push_back(child);
      }
    }
    if (reached != node_count) bad("unreachable node records");
    return staged;
  }

  // --- engine plumbing --------------------------------------------------

  static std::uint32_t offset_of(Index index) noexcept {
    return index < NodePool::kBlockSize
               ? static_cast<std::uint32_t>(index * sizeof(RangeNode))
               : RangeNode::kNoOffset;
  }

  /// Swap a staged trie into an engine-owned one. The old tree is freed
  /// into the old pool (which dies with zero live objects), the trie's
  /// cached block-0 base is re-pointed at the staged pool, and the locate
  /// directory is filled once from the decoded structure.
  static void adopt_trie(IpdTrie& trie, StagedTrie&& staged) {
    trie.destroy_all();
    trie.pool_ = std::move(staged.pool);
    trie.block0_ = trie.pool_->block_base(0);
    trie.root_ = 0;
    trie.refill_directory();
    trie.leaves_.store(staged.leaves, std::memory_order_relaxed);
    trie.nodes_.store(staged.nodes, std::memory_order_relaxed);
  }

  static std::string save(const IpdEngine& engine, const SnapshotClock& clock);
  static void install(IpdEngine& engine, StagedTrie&& v4, StagedTrie&& v6,
                      const Meta& meta);
};

namespace {

std::string encode_lpm(const std::vector<LpmRow>& rows) {
  ByteWriter out;
  out.u64(rows.size());
  for (const LpmRow& row : rows) {
    put_prefix(out, row.prefix);
    put_ingress(out, row.ingress);
  }
  return std::move(out).take();
}

std::string build_file(const Meta& meta, const IpdParams& params,
                       std::string trie_v4, std::string trie_v6,
                       const std::vector<LpmRow>& lpm) {
  util::SnapshotBuilder builder(kSnapshotFormatVersion);
  builder.add_section(kSectionMeta, encode_meta(meta));
  builder.add_section(kSectionParams, encode_params(params));
  builder.add_section(kSectionTrieV4, std::move(trie_v4));
  builder.add_section(kSectionTrieV6, std::move(trie_v6));
  builder.add_section(kSectionLpm, encode_lpm(lpm));
  return std::move(builder).finish();
}

}  // namespace

std::string SnapshotAccess::save(const IpdEngine& engine,
                                 const SnapshotClock& clock) {
  // Exclusive: shuts out concurrent ingest (shared-lock holders mutating
  // leaf contents under slot mutexes) as well as cycles, so the encoded
  // tries are a consistent instant.
  const std::unique_lock<obs::InstrumentedSharedMutex> lock(
      engine.structure_mutex_);
  Meta meta;
  meta.sharded = engine.config_.shard_bits > 0;
  meta.shard_bits = engine.config_.shard_bits;
  meta.clock = clock;
  meta.stats = engine.stats();
  meta.params_hash = params_hash(engine.params());
  meta.build_info = obs::build_info_line();
  std::vector<LpmRow> lpm;
  std::string v4 = encode_trie(engine.v4_.trie, &lpm);
  std::string v6 = encode_trie(engine.v6_.trie, &lpm);
  return build_file(meta, engine.params(), std::move(v4), std::move(v6), lpm);
}

void SnapshotAccess::install(IpdEngine& engine, StagedTrie&& v4,
                             StagedTrie&& v6, const Meta& meta) {
  const std::unique_lock<obs::InstrumentedSharedMutex> lock(
      engine.structure_mutex_);
  adopt_trie(engine.v4_.trie, std::move(v4));
  adopt_trie(engine.v6_.trie, std::move(v6));
  // Lifetime flow counts live distributed over slot counters; stats() only
  // ever sums them, so parking the whole total on one slot preserves every
  // observable number across any shard-count change.
  for (IpdEngine::FamilyState* state : {&engine.v4_, &engine.v6_}) {
    for (auto& slot : state->slots) {
      slot->flows.store(0, std::memory_order_relaxed);
    }
  }
  engine.v4_.slots[0]->flows.store(meta.stats.flows_ingested,
                                   std::memory_order_relaxed);
  engine.cycles_run_.store(meta.stats.cycles_run, std::memory_order_relaxed);
  engine.total_classifications_.store(meta.stats.total_classifications,
                                      std::memory_order_relaxed);
  engine.total_splits_.store(meta.stats.total_splits,
                             std::memory_order_relaxed);
  engine.total_joins_.store(meta.stats.total_joins, std::memory_order_relaxed);
  engine.total_drops_.store(meta.stats.total_drops, std::memory_order_relaxed);
  // Re-shard: the cut is derived state over the trie's top levels, so a
  // snapshot from any shard count loads into any other.
  engine.rebuild_cut(engine.v4_);
  engine.rebuild_cut(engine.v6_);
}

std::string save_snapshot(const IpdEngine& engine,
                          const SnapshotClock& clock) {
  return SnapshotAccess::save(engine, clock);
}

void save_snapshot_file(const std::string& path, const IpdEngine& engine,
                        const SnapshotClock& clock) {
  util::write_file_atomic(path, save_snapshot(engine, clock));
}

namespace {

/// Parse + cross-check the header sections shared by every reader.
Meta parse_meta_checked(const util::SnapshotParser& parser) {
  if (parser.format_version() != kSnapshotFormatVersion) {
    throw SnapshotError(SnapshotErrc::kBadVersion,
                        "format version " +
                            std::to_string(parser.format_version()) +
                            ", supported " +
                            std::to_string(kSnapshotFormatVersion));
  }
  Meta meta = decode_meta(parser.section(kSectionMeta));
  const std::string_view params_payload = parser.section(kSectionParams);
  if (meta.params_hash !=
      util::crc64(params_payload.data(), params_payload.size())) {
    bad("meta params hash does not match the params section");
  }
  return meta;
}

}  // namespace

SnapshotInfo read_snapshot_info(std::string_view data) {
  const util::SnapshotParser parser(data);
  const Meta meta = parse_meta_checked(parser);
  SnapshotInfo info;
  info.format_version = parser.format_version();
  info.build_info = meta.build_info;
  info.params_hash = meta.params_hash;
  info.sharded = meta.sharded;
  info.shard_bits = meta.shard_bits;
  info.clock = meta.clock;
  info.stats = meta.stats;
  ByteReader lpm(parser.section(kSectionLpm));
  info.lpm_rows = lpm.u64();
  return info;
}

SnapshotInfo read_snapshot_info_file(const std::string& path) {
  const std::string data = util::read_file(path);
  return read_snapshot_info(data);
}

std::vector<LpmRow> read_snapshot_lpm(std::string_view data) {
  const util::SnapshotParser parser(data);
  parse_meta_checked(parser);
  ByteReader in(parser.section(kSectionLpm));
  const std::uint64_t n = checked_len(in.u64(), "lpm row count");
  std::vector<LpmRow> rows;
  rows.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    LpmRow row;
    row.prefix = get_prefix(in);
    row.ingress = get_ingress(in);
    rows.push_back(std::move(row));
  }
  in.expect_done();
  return rows;
}

SnapshotClock restore_snapshot(IpdEngine& engine, std::string_view data) {
  const util::SnapshotParser parser(data);
  const Meta meta = parse_meta_checked(parser);

  // Params gate: a snapshot only continues deterministically under the
  // exact parameters it was produced with. Canonical-encoding equality is
  // params equality (bit-exact doubles included).
  decode_params(parser.section(kSectionParams));  // well-formedness
  if (encode_params(engine.params()) != parser.section(kSectionParams)) {
    throw SnapshotError(SnapshotErrc::kParamsMismatch,
                        "engine params differ from the snapshot's");
  }

  // Stage everything before touching the engine (fail closed): both tries
  // decode and validate into fresh pools; only the installs below mutate
  // engine state, and they cannot throw.
  SnapshotAccess::StagedTrie v4 =
      SnapshotAccess::decode_trie(parser.section(kSectionTrieV4),
                                  net::Family::V4);
  SnapshotAccess::StagedTrie v6 =
      SnapshotAccess::decode_trie(parser.section(kSectionTrieV6),
                                  net::Family::V6);

  SnapshotAccess::install(engine, std::move(v4), std::move(v6), meta);
  return meta.clock;
}

SnapshotClock restore_snapshot_file(IpdEngine& engine,
                                    const std::string& path) {
  const std::string data = util::read_file(path);
  return restore_snapshot(engine, data);
}

// --- SnapshotTelemetry ---------------------------------------------------

void SnapshotTelemetry::bind(obs::MetricsRegistry& registry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  saves_total_ = &registry.counter("ipd_snapshots_total",
                                   "Engine snapshots written");
  restores_total_ = &registry.counter("ipd_snapshot_restores_total",
                                      "Engine restores from snapshot");
  errors_total_ = &registry.counter("ipd_snapshot_errors_total",
                                    "Snapshot save/restore failures");
  bytes_gauge_ = &registry.gauge("ipd_snapshot_bytes",
                                 "Size of the newest snapshot file");
  age_gauge_ = &registry.gauge(
      "ipd_snapshot_age_seconds",
      "Data-time age of the newest snapshot (-1 before the first)");
  save_seconds_ = &registry.histogram(
      "ipd_snapshot_duration_seconds", "Snapshot serialization wall time",
      obs::Histogram::exponential_bounds(0.001, 2.0, 14));
  age_gauge_->set(state_.age_seconds);
}

void SnapshotTelemetry::set_path(std::string path) {
  const std::lock_guard<std::mutex> lock(mutex_);
  state_.path = std::move(path);
}

void SnapshotTelemetry::record_save(std::uint64_t bytes, double seconds,
                                    util::Timestamp data_ts) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++state_.saves;
  state_.last_bytes = bytes;
  state_.last_save_seconds = seconds;
  state_.last_saved_at = data_ts;
  state_.age_seconds = 0.0;
  if (saves_total_ != nullptr) {
    saves_total_->inc();
    bytes_gauge_->set(static_cast<double>(bytes));
    save_seconds_->observe(seconds);
    age_gauge_->set(0.0);
  }
}

void SnapshotTelemetry::record_restore(std::uint64_t bytes, double seconds,
                                       util::Timestamp data_ts) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++state_.restores;
  state_.last_bytes = bytes;
  state_.last_restore_seconds = seconds;
  state_.last_saved_at = data_ts;
  state_.age_seconds = 0.0;
  if (restores_total_ != nullptr) {
    restores_total_->inc();
    age_gauge_->set(0.0);
  }
}

void SnapshotTelemetry::record_error(const std::string& what) {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++state_.errors;
  state_.last_error = what;
  if (errors_total_ != nullptr) errors_total_->inc();
}

void SnapshotTelemetry::update_age(util::Timestamp now_data_ts) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (state_.saves == 0 && state_.restores == 0) return;
  const double age = now_data_ts >= state_.last_saved_at
                         ? static_cast<double>(now_data_ts -
                                               state_.last_saved_at)
                         : 0.0;
  state_.age_seconds = age;
  if (age_gauge_ != nullptr) age_gauge_->set(age);
}

SnapshotTelemetry::State SnapshotTelemetry::state() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

}  // namespace ipd::core
