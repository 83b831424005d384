// Dynamic IPD range trie, arena-backed.
//
// The IP address space is a binary tree whose leaves form a disjoint
// partition into *IPD ranges* (paper §3.2). Leaves are either
//   Monitoring  — not yet classified; per-masked-IP detail state is kept so
//                 that splits redistribute samples exactly and per-IP
//                 expiry (parameter e) works as described, or
//   Classified  — a prevalent ingress was found; detail state is dropped
//                 and only aggregate per-ingress counters remain.
// Interior nodes carry no state.
//
// Memory layout: nodes live in a per-trie NodePool arena and refer to each
// other by 32-bit indices instead of unique_ptr/raw-pointer edges. Slots
// freed by join/compact are reused before the arena grows, node addresses
// are stable for the life of the trie (blocks never move), and per-IP
// detail sits in one contiguous FlatIpTable allocation per leaf. The
// upshot: half the edge bytes, no per-node heap allocation on split,
// cache-local stage-2 walks, and memory_bytes() that is *exact* (arena
// blocks + flat tables + spilled counters) rather than estimated.
//
// Navigation goes through the trie (`trie.child(node, bit)`, `trie.node(i)`)
// because an index is only meaningful relative to its pool; RangeNode
// itself exposes the raw indices.
//
// Descents start from a directory over the top kDirectoryBits address
// bits (see IpdTrie::locate), kept in place by split/join/compact while
// the root is internal, so a lookup skips the first 16 levels.
//
// Concurrency: the trie is not synchronized — callers serialize structural
// changes externally (the sharded engine holds an exclusive lock during
// stage 2 and per-subtree mutexes during stage 1). Concurrent stage-2
// passes over disjoint subtrees are safe: the node/leaf counters are
// relaxed atomics, pool alloc/free is internally serialized, and index
// resolution is lock-free against concurrent allocation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "core/flat_ip_table.hpp"
#include "core/ingress.hpp"
#include "net/ip_address.hpp"
#include "net/prefix.hpp"
#include "util/index_arena.hpp"
#include "util/time.hpp"

namespace ipd::core {

class IpdTrie;
class RangeNode;

/// Snapshot serializer (core/snapshot.cpp). Friended into the engine's
/// state-bearing types so warm-restart save/restore can reproduce private
/// layout (slot placement, free chains, exact capacities) bit-for-bit
/// without widening the public API.
struct SnapshotAccess;

/// Node handle within one trie's pool.
using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kInvalidNode = 0xffffffffu;

class alignas(64) RangeNode {
 public:
  enum class State : std::uint8_t { Monitoring, Classified, Internal };

  RangeNode(net::Prefix prefix, NodeIndex self,
            NodeIndex parent = kInvalidNode)
      : self_(self), parent_(parent), prefix_(prefix) {}

  const net::Prefix& prefix() const noexcept { return prefix_; }
  State state() const noexcept { return state_; }
  bool is_leaf() const noexcept { return state_ != State::Internal; }

  /// This node's pool index (stable for the node's lifetime).
  NodeIndex index() const noexcept { return self_; }
  NodeIndex parent_index() const noexcept { return parent_; }
  NodeIndex child_index(int bit) const noexcept {
    return bit ? child1_ : child0_;
  }

  /// Aggregate per-ingress counters (valid for leaves).
  const IngressCounts& counts() const noexcept { return counts_; }
  IngressCounts& counts() noexcept { return counts_; }

  /// Classified ingress; valid() only in Classified state.
  const IngressId& ingress() const noexcept { return ingress_; }

  util::Timestamp last_update() const noexcept { return last_update_; }
  util::Timestamp classified_at() const noexcept { return classified_at_; }

  const FlatIpTable& ips() const noexcept { return ips_; }
  FlatIpTable& ips() noexcept { return ips_; }

  /// Record one sample (stage 1). Leaf only; `n` >= 1.
  void add_sample(util::Timestamp ts, const net::IpAddress& masked_ip,
                  topology::LinkId link, std::uint64_t n = 1);

  /// The aggregate half of add_sample (per-ingress counters + freshness),
  /// without the Monitoring per-IP table probe. The batched ingest path
  /// applies aggregates row by row through this and batches the probes
  /// into FlatIpTable::apply_many; add_aggregate + (Monitoring ?
  /// apply_many op : nothing) == add_sample. Leaf only.
  void add_aggregate(util::Timestamp ts, topology::LinkId link,
                     std::uint64_t n) noexcept {
    counts_.add(link, static_cast<double>(n));
    if (ts > last_update_) last_update_ = ts;
  }

  /// Remove per-IP entries older than `cutoff`, subtracting each one's
  /// per-link counts from the aggregate as it goes, and compact the detail
  /// table. Costs one pass over the table plus one counter lookup per
  /// departing (IP, link) pair; the aggregate ends bit-identical to
  /// rebuilt_counts() (Debug builds assert it). Monitoring leaves only.
  void expire_before(util::Timestamp cutoff);

  /// The aggregate counters rebuilt from scratch out of the per-IP detail
  /// (slot order, each link added in turn): the reference a Monitoring
  /// leaf's counts() equals, capacity included.
  IngressCounts rebuilt_counts() const;

  /// Move to Classified: drop per-IP detail (releasing its memory), keep
  /// aggregates.
  void classify(const IngressId& ingress, util::Timestamp now);

  /// Drop a classification (or all state): back to empty Monitoring.
  void reset_to_monitoring();

  /// Exact heap bytes owned by this node beyond its pool slot: the flat
  /// table, spilled counters, and the ingress interface set.
  std::size_t memory_bytes() const noexcept;

 private:
  friend class IpdTrie;
  friend struct SnapshotAccess;

  /// Sentinel for child_off_: leaf, or a child outside the arena's first
  /// block (locate() then falls back to index resolution).
  static constexpr std::uint32_t kNoOffset = 0xffffffffu;

  // Hot fields first: locate() touches only child_off_/state_ per descent
  // level, and the 64-byte node alignment keeps them in the first cache
  // line of every node. child_off_ holds the children's precomputed byte
  // offsets inside the arena's first block, indexed by the address bit, so
  // the per-level critical path is a single load plus one add — the same
  // chain a pointer-linked trie would have (a child index would need a
  // ×sizeof multiply on the load-to-load path, which is 2-3× slower when
  // the upper levels sit in L1/L2).
  std::uint32_t child_off_[2] = {kNoOffset, kNoOffset};
  State state_ = State::Monitoring;
  NodeIndex child0_ = kInvalidNode;
  NodeIndex child1_ = kInvalidNode;
  NodeIndex self_ = kInvalidNode;
  NodeIndex parent_ = kInvalidNode;
  net::Prefix prefix_;

  FlatIpTable ips_;
  IngressCounts counts_;
  IngressId ingress_;
  util::Timestamp last_update_ = 0;
  util::Timestamp classified_at_ = 0;
};

// Three cache lines; the table's running spill sum filled the last slack.
static_assert(sizeof(RangeNode) == 192);

/// One walk's worth of partition totals (IpdTrie::census).
struct TrieCensus {
  std::size_t classified = 0;    // leaves by state
  std::size_t monitoring = 0;
  std::size_t tracked_ips = 0;   // per-IP entries held by monitoring leaves
  std::size_t memory_bytes = 0;  // exact, as IpdTrie::memory_bytes()
};

/// One address family's partition of the address space.
class IpdTrie {
 public:
  /// Node arena: 4096-node blocks, up to ~67M nodes per family — beyond a
  /// full /24-grain IPv4 partition. Indices and addresses are stable.
  using NodePool = util::IndexArena<RangeNode>;
  static_assert(NodePool::kInvalid == kInvalidNode);

  explicit IpdTrie(net::Family family);
  ~IpdTrie();

  /// Top address bits the locate directory covers (see locate()). 12 and
  /// 14 left more levels per descent, and a slower locate step on the
  /// sharded workload, than 16 (DESIGN.md §11).
  static constexpr int kDirectoryBits = 16;
  static constexpr std::size_t kDirectoryEntries = std::size_t{1}
                                                   << kDirectoryBits;
  static_assert(kDirectoryBits <= 32, "an IPv4 descent starts inside its word");

  // Movable (the counters are atomic only for concurrent stage-2 passes;
  // moving a trie that is being cycled concurrently is a caller bug).
  IpdTrie(IpdTrie&& other) noexcept
      : family_(other.family_),
        pool_(std::move(other.pool_)),
        block0_(other.block0_),
        root_(other.root_),
        directory_(std::move(other.directory_)),
        leaves_(other.leaves_.load(std::memory_order_relaxed)),
        nodes_(other.nodes_.load(std::memory_order_relaxed)) {
    other.root_ = kInvalidNode;
  }
  IpdTrie& operator=(IpdTrie&& other) noexcept {
    destroy_all();
    family_ = other.family_;
    pool_ = std::move(other.pool_);
    block0_ = other.block0_;
    root_ = other.root_;
    directory_ = std::move(other.directory_);
    other.root_ = kInvalidNode;
    leaves_.store(other.leaves_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    nodes_.store(other.nodes_.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
    return *this;
  }

  net::Family family() const noexcept { return family_; }
  const RangeNode& root() const noexcept { return resolve(root_); }
  RangeNode& root() noexcept { return resolve(root_); }
  NodeIndex root_index() const noexcept { return root_; }

  /// Resolve a node index against this trie's pool.
  RangeNode& node(NodeIndex index) noexcept { return resolve(index); }
  const RangeNode& node(NodeIndex index) const noexcept {
    return resolve(index);
  }

  /// `node`'s child, nullptr for leaves.
  RangeNode* child(const RangeNode& node, int bit) noexcept {
    const NodeIndex i = node.child_index(bit);
    return i == kInvalidNode ? nullptr : &resolve(i);
  }
  const RangeNode* child(const RangeNode& node, int bit) const noexcept {
    const NodeIndex i = node.child_index(bit);
    return i == kInvalidNode ? nullptr : &resolve(i);
  }

  /// The leaf range currently covering `ip` (always exists).
  ///
  /// While the root is internal, a descent starts from the directory: the
  /// entry for `ip`'s top kDirectoryBits bits is the node on that block's
  /// path at depth min(kDirectoryBits, leaf depth) — the covering leaf
  /// itself when it sits at or above that depth, else the internal node
  /// at exactly that depth, from which the walk continues one dependent
  /// load per level. Traffic concentrates in deep, narrow ranges, so this
  /// drops the levels every descent shares.
  RangeNode& locate(const net::IpAddress& ip) noexcept;

  /// Interleaved descents a single walk cannot: locate() is one dependent
  /// load per level, so a cold descent stalls for a full cache miss at
  /// every level. locate_many keeps kLocateWalks independent descents in
  /// flight round-robin; each starts from the directory as locate() does,
  /// and each visit advances a walk by one level and prefetches the next
  /// node, which then has (kLocateWalks - 1) other visits' worth of time
  /// to arrive before that walk is serviced again. `get_ip(i)` supplies
  /// address i (0..n-1, each read exactly once, in order); `emit(i, leaf)`
  /// receives the covering leaf. Emission order is unspecified — callers
  /// needing arrival order buffer by index. The trie must not be
  /// structurally mutated during the call (same contract as locate();
  /// stage 1 never splits).
  static constexpr std::size_t kLocateWalks = 8;

  template <class GetIp, class Emit>
  void locate_many(std::size_t n, const GetIp& get_ip,
                   const Emit& emit) noexcept {
    if (n < 2 || directory_ == nullptr) {
      for (std::size_t i = 0; i < n; ++i) emit(i, locate(get_ip(i)));
      return;
    }
    std::byte* const base = reinterpret_cast<std::byte*>(block0_);
    struct Walk {
      RangeNode* node;
      std::uint64_t word;  // top-aligned remaining address bits
      std::uint64_t rest;  // v6 bits 64..127 (crossover at depth 64)
      std::uint32_t depth;
      std::size_t idx;
    };
    Walk walks[kLocateWalks];
    std::size_t next = 0;
    const auto start = [&](Walk& w) {
      const net::IpAddress& ip = get_ip(next);
      w.idx = next++;
      const std::uint64_t word = top_word(ip);
      w.node = &resolve(directory_[word >> (64 - kDirectoryBits)]);
      __builtin_prefetch(w.node, 0, 3);
      w.word = word << kDirectoryBits;
      w.rest = ip.lo();
      w.depth = kDirectoryBits;
    };
    std::size_t active = n < kLocateWalks ? n : kLocateWalks;
    for (std::size_t i = 0; i < active; ++i) start(walks[i]);
    while (active > 0) {
      for (std::size_t s = 0; s < active;) {
        Walk& w = walks[s];
        RangeNode* const node = w.node;
        // The state load is this walk's first touch of the node prefetched
        // on its previous visit — the interleave exists to give that line
        // time to land.
        if (node->state_ != RangeNode::State::Internal) {
          emit(w.idx, *node);
          if (next < n) {
            start(w);
            ++s;
          } else {
            walks[s] = walks[--active];  // re-examine the moved walk at s
          }
          continue;
        }
        const bool one = static_cast<std::int64_t>(w.word) < 0;
        const std::uint32_t off = node->child_off_[one];
        w.word <<= 1;
        if (++w.depth == 64) w.word = w.rest;
        RangeNode* const child =
            off != RangeNode::kNoOffset
                ? std::launder(reinterpret_cast<RangeNode*>(base + off))
                : &resolve(one ? node->child1_ : node->child0_);
        __builtin_prefetch(child, 0, 3);
        w.node = child;
        ++s;
      }
    }
  }

  /// Split a Monitoring leaf into its two children, redistributing the
  /// per-IP detail by the next address bit. Returns false if the node is
  /// not splittable (not a Monitoring leaf, or already at full width).
  bool split(RangeNode& node);

  /// Join `parent`'s two children into `parent` if both are Classified
  /// leaves with the same ingress. Frees both child slots for reuse.
  bool join_children(RangeNode& parent);

  /// Collapse two empty Monitoring leaf children into the parent.
  bool compact_children(RangeNode& parent);

  /// Visit every leaf (the current partition), in address order.
  void for_each_leaf(const std::function<void(RangeNode&)>& fn);
  void for_each_leaf(const std::function<void(const RangeNode&)>& fn) const;

  /// Visit every leaf under `node`, in address order. `node` must belong
  /// to this trie (the sharded engine walks one cut subtree at a time
  /// while holding that subtree's lock).
  void for_each_leaf_from(
      const RangeNode& node,
      const std::function<void(const RangeNode&)>& fn) const;

  /// Post-order visit of every node (children before parents). The visitor
  /// may split the visited node; freshly created children are not visited
  /// in the same pass.
  void post_order(const std::function<void(RangeNode&)>& fn);

  /// Post-order visit limited to the subtree rooted at `node` (the
  /// sharded engine's per-cut stage-2 pass). Safe to run concurrently on
  /// disjoint subtrees: all structural mutations stay inside the subtree,
  /// pool allocation is internally serialized, and the trie-wide counters
  /// are atomic.
  void post_order_from(RangeNode& node,
                       const std::function<void(RangeNode&)>& fn);

  std::size_t leaf_count() const noexcept {
    return leaves_.load(std::memory_order_relaxed);
  }
  std::size_t node_count() const noexcept {
    return nodes_.load(std::memory_order_relaxed);
  }

  /// Leaf counts by state, tracked IPs and exact heap bytes, from one
  /// iterative walk over every node. With `weights`, the same walk also
  /// stores every node's subtree work weight at (*weights)[index] — one
  /// per leaf plus the per-IP slots of the leaves below — for the engine's
  /// cut chooser; entries of free pool slots are left unspecified.
  TrieCensus census(std::vector<std::uint64_t>* weights = nullptr) const;

  /// Exact total heap usage in bytes: the node arena (block table plus
  /// mapped blocks), the locate directory, and every node's owned heap
  /// (flat tables, spilled counters, bundle interface sets). A census()
  /// walk.
  std::size_t memory_bytes() const;

  /// The locate directory's bytes: kDirectoryEntries NodeIndex entries
  /// while the root is internal, none while it is a leaf.
  std::size_t directory_bytes() const noexcept {
    return directory_ != nullptr ? kDirectoryEntries * sizeof(NodeIndex) : 0;
  }

  /// Exact arena footprint alone (blocks + block table).
  std::size_t arena_bytes() const noexcept { return pool_->bytes(); }

  /// Pool slots ever mapped (high-water mark). A join/split steady state
  /// reuses freed slots, so this stays flat — the free-list test pins it.
  std::size_t pool_high_water() const noexcept { return pool_->high_water(); }

 private:
  friend struct SnapshotAccess;

  /// Index resolution with a fast path through block 0 (installed by the
  /// constructor, never moved): one predictable branch and a direct index
  /// off a cached base instead of the arena's atomic block-table load.
  /// Tries up to 4096 nodes — virtually all of them — never leave it.
  RangeNode& resolve(NodeIndex index) noexcept {
    if (index < NodePool::kBlockSize) [[likely]] {
      return block0_[index];
    }
    return (*pool_)[index];
  }
  const RangeNode& resolve(NodeIndex index) const noexcept {
    if (index < NodePool::kBlockSize) [[likely]] {
      return block0_[index];
    }
    return (*pool_)[index];
  }

  /// Precomputed block-0 byte offset for a child edge (see
  /// RangeNode::child_off_); kNoOffset beyond the first block.
  std::uint32_t offset_of(NodeIndex index) const noexcept {
    return index < NodePool::kBlockSize
               ? static_cast<std::uint32_t>(index * sizeof(RangeNode))
               : RangeNode::kNoOffset;
  }

  /// The address bits as a top-aligned word: a descent consumes its sign
  /// bit first. IPv6 continues into lo() at depth 64.
  static std::uint64_t top_word(const net::IpAddress& ip) noexcept {
    return ip.is_v4() ? ip.lo() << 32 : ip.hi();
  }

  /// Point every entry of `directory` under `prefix` (length <=
  /// kDirectoryBits) at `entry`: 2^(kDirectoryBits - length) writes, all
  /// inside the prefix's own range, so stage-2 units over disjoint
  /// subtrees write disjoint entries.
  static void write_directory(NodeIndex* directory, const net::Prefix& prefix,
                              NodeIndex entry) noexcept;

  /// The directory a fresh walk from the root produces (root internal).
  std::unique_ptr<NodeIndex[]> filled_directory() const;

  /// Install the directory the current structure implies: a fresh fill
  /// while the root is internal, none otherwise (snapshot restore).
  void refill_directory();

  /// Free `parent`'s two leaf children, making it a leaf (join/compact),
  /// and point the directory entries under it at it.
  void release_children(RangeNode& parent) noexcept;

  void visit_leaves(RangeNode& node, const std::function<void(RangeNode&)>& fn);
  void visit_post(RangeNode& node, const std::function<void(RangeNode&)>& fn);
  void destroy_all() noexcept;
  void free_subtree(NodeIndex index) noexcept;

  net::Family family_;
  // unique_ptr keeps the trie movable (the arena itself holds a mutex).
  std::unique_ptr<NodePool> pool_;
  // Cached base of the pool's first block (see resolve()).
  RangeNode* block0_ = nullptr;
  NodeIndex root_ = kInvalidNode;
  // Locate directory: kDirectoryEntries node indices, allocated when the
  // root splits and released when it joins or compacts, so its memory is
  // a pure function of the structure. Entry h is the node on the path of
  // the addresses whose top kDirectoryBits bits are h, at depth
  // min(kDirectoryBits, leaf depth).
  std::unique_ptr<NodeIndex[]> directory_;
  // Relaxed atomics: adjusted from concurrent per-subtree stage-2 passes;
  // increments/decrements commute, so totals stay exact and deterministic.
  std::atomic<std::size_t> leaves_{1};
  std::atomic<std::size_t> nodes_{1};
};

}  // namespace ipd::core
