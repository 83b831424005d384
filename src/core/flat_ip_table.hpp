// Flat open-addressing table for per-IP detail state.
//
// Every Monitoring leaf keeps one of these instead of a node-based
// std::unordered_map: all entries live in a single contiguous slot array
// (linear probing, power-of-two capacity), so the stage-2 expire walk and
// split redistribution stream through one allocation instead of chasing a
// heap node per IP. Deletion uses backward-shift (no tombstones), so probe
// chains never rot; compact() re-homes the survivors into the smallest
// fitting array, which is what the cycle uses where the old code resorted
// to `clear(); rehash(0)` hacks. An empty table owns no heap at all —
// classify()/reset really do return the memory.
//
// Iteration order is slot order: a pure function of the insert/erase
// sequence, identical between the sequential and sharded engines (both
// apply the same per-leaf operation sequence), so the determinism
// differential holds. The aggregates that split builds and expiry
// subtracts from in slot order are IngressCounts, which is canonically
// ordered and exact on integer counts, so slot order never reaches them.
//
// memory_bytes() is exact and O(1): capacity * sizeof(Slot) plus a running
// sum of every entry's spilled counter storage. Per-IP counters change only
// through the table (add, apply_many, insert_moved, erase_if, drain, clear),
// each of which carries the sum along, so no caller can bypass it;
// recounted_memory_bytes() is the slot walk it must equal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

#include "net/ip_address.hpp"
#include "topology/ids.hpp"
#include "util/small_vec.hpp"
#include "util/time.hpp"

namespace ipd::core {

struct SnapshotAccess;  // snapshot serializer; see trie.hpp

/// Per-masked-source-IP state inside a Monitoring range. Read-only outside
/// the owning FlatIpTable, which accounts for the counters' heap spill.
struct IpEntry {
  util::Timestamp last_seen = 0;
  std::uint64_t total = 0;
  // Per-ingress flow counts; nearly always one or two links (paper §3.2),
  // so two pairs stay inline with the entry.
  util::SmallVec<util::PodPair<topology::LinkId, std::uint64_t>, 2> counts;

 private:
  friend class FlatIpTable;

  void add(topology::LinkId link, std::uint64_t n) {
    total += n;
    for (auto& [l, c] : counts) {
      if (l == link) {
        c += n;
        return;
      }
    }
    counts.emplace_back(link, n);
  }
};

class FlatIpTable {
 public:
  using value_type = std::pair<net::IpAddress, IpEntry>;

  FlatIpTable() noexcept = default;
  FlatIpTable(FlatIpTable&& other) noexcept
      : slots_(other.slots_),
        capacity_(other.capacity_),
        size_(other.size_),
        spilled_bytes_(other.spilled_bytes_) {
    other.slots_ = nullptr;
    other.capacity_ = 0;
    other.size_ = 0;
    other.spilled_bytes_ = 0;
  }
  FlatIpTable& operator=(FlatIpTable&& other) noexcept {
    if (this != &other) {
      destroy();
      slots_ = other.slots_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      spilled_bytes_ = other.spilled_bytes_;
      other.slots_ = nullptr;
      other.capacity_ = 0;
      other.size_ = 0;
      other.spilled_bytes_ = 0;
    }
    return *this;
  }
  FlatIpTable(const FlatIpTable&) = delete;
  FlatIpTable& operator=(const FlatIpTable&) = delete;
  ~FlatIpTable() { destroy(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t capacity() const noexcept { return capacity_; }

  /// One per-IP sample (stage 1): the entry for `key`, inserted if absent,
  /// takes the later of its last_seen and `ts` and adds `n` to `link`'s
  /// count.
  void add(const net::IpAddress& key, util::Timestamp ts,
           topology::LinkId link, std::uint64_t n);

  /// One per-IP sample application against a specific table; the unit of
  /// apply_many().
  struct ApplyOp {
    FlatIpTable* table;
    const net::IpAddress* key;
    util::Timestamp ts;
    topology::LinkId link;
    std::uint64_t n;
  };

  /// Apply every op exactly as the sequential loop
  ///   `op.table->add(*op.key, op.ts, op.link, op.n);`
  /// would in span order, but with the probe chains software-interleaved:
  /// ~16 independent walks stay in flight round-robin, each visit advances
  /// one chain a slot and prefetches the next, so dependent slot loads
  /// from many records overlap instead of serializing. Out-of-order
  /// hardware only spans a couple of records' chains; this is the same
  /// trick IpdTrie::locate_many plays for descents, applied to the
  /// open-addressing probe.
  ///
  /// Byte-identity with the sequential loop holds because hits only do
  /// commutative updates (max on timestamps, exact integer-valued sums,
  /// first-appearance link order is per-key and keys are walked to
  /// completion), while misses — which would insert and therefore fix
  /// slot placement, growth points, and probe-chain shape — are deferred
  /// and replayed through find_or_insert in span order. A hit that the
  /// sequential loop would have grown its table on (find_or_insert's
  /// growth check precedes the lookup) is replayed as that growth at the
  /// end, so capacity and memory_bytes() match too.
  static void apply_many(std::span<const ApplyOp> ops);

  /// Prefetch the start of the probe chain for `key`. The batched ingest
  /// path issues this a few records ahead of the matching add
  /// so the (usually LLC-missing) slot lines are in flight while other
  /// records are applied. A Slot spans more than one cache line and linear
  /// probing often reads into the next slot, so fetch the two lines the
  /// probe touches first plus the line the chain continues into. Write
  /// hint: the probe ends in a counter bump or an insert either way.
  void prefetch(const net::IpAddress& key) const noexcept {
    if (capacity_ == 0) return;
    const char* p =
        reinterpret_cast<const char*>(&slots_[ideal_slot(key)]);
    __builtin_prefetch(p, 1, 3);
    __builtin_prefetch(p + 64, 1, 3);
    __builtin_prefetch(p + 128, 1, 3);
  }

  /// nullptr if absent.
  const IpEntry* find(const net::IpAddress& key) const noexcept;

  /// Move `entry` in under `key` (split redistribution). `key` must be
  /// absent.
  void insert_moved(const net::IpAddress& key, IpEntry&& entry);

  /// Hand every entry to `fn(key, IpEntry&&)` in slot order, then release
  /// the table as clear() does (split redistribution).
  template <class Fn>
  void drain(Fn&& fn) {
    for (std::size_t i = 0; i < capacity_; ++i) {
      Slot& slot = slots_[i];
      if (slot.used) {
        fn(static_cast<const net::IpAddress&>(slot.kv.first),
           std::move(slot.kv.second));
      }
    }
    destroy();
  }

  /// Erase every entry for which `pred(key, entry)` holds; returns the
  /// number removed. Backward-shift deletion, no tombstones.
  template <class Pred>
  std::size_t erase_if(Pred&& pred) {
    if (size_ == 0) return 0;
    std::size_t removed = 0;
    for (std::size_t i = 0; i < capacity_;) {
      Slot& slot = slots_[i];
      if (slot.used && pred(static_cast<const net::IpAddress&>(slot.kv.first),
                            static_cast<const IpEntry&>(slot.kv.second))) {
        spilled_bytes_ -= slot.kv.second.counts.heap_bytes();
        erase_slot(i);
        ++removed;
        // Backward shift may pull an unexamined entry into slot i;
        // re-test it before advancing.
        continue;
      }
      ++i;
    }
    size_ -= removed;
    return removed;
  }

  /// Drop everything and release the slot array.
  void clear() noexcept { destroy(); }

  /// Size an empty table for `n` inserts: allocate the capacity that `n`
  /// sequential inserts grow it to, so they run without a rehash (split
  /// redistribution). Not capacity_for(n), which holds twice as much.
  void reserve(std::size_t n);

  /// Shrink the slot array to the smallest capacity fitting the current
  /// entries (releases everything when empty). The cycle calls this after
  /// expiry so quiet ranges give memory back instead of holding their
  /// high-water bucket count.
  void compact();

  /// Exact heap bytes owned by this table: the slot array plus spilled
  /// per-entry counter storage, from the running sum — O(1).
  std::size_t memory_bytes() const noexcept {
    return capacity_ * sizeof(Slot) + spilled_bytes_;
  }

  /// memory_bytes() recounted by visiting every slot: the reference the
  /// running sum must equal (IpdTrie::census asserts it in Debug builds).
  std::size_t recounted_memory_bytes() const noexcept;

  // Slot-order iteration over used entries (read-only: counters change
  // through the table).
  template <class SlotT, class ValueT>
  class Iter {
   public:
    Iter(SlotT* slot, SlotT* end) noexcept : slot_(slot), end_(end) {
      skip();
    }
    ValueT& operator*() const noexcept { return slot_->kv; }
    ValueT* operator->() const noexcept { return &slot_->kv; }
    Iter& operator++() noexcept {
      ++slot_;
      skip();
      return *this;
    }
    friend bool operator==(const Iter& a, const Iter& b) noexcept {
      return a.slot_ == b.slot_;
    }

   private:
    void skip() noexcept {
      while (slot_ != end_ && !slot_->used) ++slot_;
    }
    SlotT* slot_;
    SlotT* end_;
  };

 private:
  struct Slot {
    value_type kv;
    bool used = false;
  };

 public:
  using const_iterator = Iter<const Slot, const value_type>;

  const_iterator begin() const noexcept {
    return {slots_, slots_ + capacity_};
  }
  const_iterator end() const noexcept {
    return {slots_ + capacity_, slots_ + capacity_};
  }

 private:
  friend struct SnapshotAccess;

  static constexpr std::size_t kMinCapacity = 8;

  /// The entry for `key`, inserted default-initialized if absent.
  IpEntry& find_or_insert(const net::IpAddress& key);

  /// `entry.add(link, n)` with the spill sum carried along.
  void add_count(IpEntry& entry, topology::LinkId link, std::uint64_t n) {
    const std::size_t before = entry.counts.heap_bytes();
    entry.add(link, n);
    spilled_bytes_ += entry.counts.heap_bytes() - before;
  }

  /// Slot arrays at least this large are allocated 2 MiB-aligned and
  /// advised onto transparent huge pages. Busy Monitoring leaves hold
  /// multi-MB arrays probed at random offsets; on 4 KiB pages every probe
  /// is a dTLB miss whose page walk both serializes the lookup and gets
  /// the look-ahead software prefetches dropped (prefetches do not take
  /// TLB misses). Huge pages collapse the array to a handful of TLB
  /// entries, which is what lets the batched ingest pipeline actually
  /// hide the slot fetch.
  static constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

  /// Paired allocate/release for the slot array (default-initialized).
  /// The allocation strategy is a pure function of the element count, so
  /// callers only need to pass the same count to both. Snapshot restore
  /// allocates through this too.
  static Slot* allocate_slots(std::size_t n);
  static void free_slots(Slot* slots, std::size_t n) noexcept;

  std::size_t ideal_slot(const net::IpAddress& key) const noexcept {
    return static_cast<std::size_t>(key.hash()) & (capacity_ - 1);
  }

  /// Whether the next find_or_insert grows the table first (75% load,
  /// counting the entry it may add). Checked before the lookup, so hits
  /// grow too.
  bool at_growth_trigger() const noexcept {
    return 4 * (size_ + 1) > 3 * capacity_;
  }

  /// Smallest power-of-two capacity holding `n` entries at <= 50% load
  /// (grow-on-insert triggers at 75%, so compact leaves headroom).
  static std::size_t capacity_for(std::size_t n) noexcept;

  void rehash(std::size_t new_capacity);
  void erase_slot(std::size_t i) noexcept;
  void destroy() noexcept;

  Slot* slots_ = nullptr;
  std::size_t capacity_ = 0;  // 0 or a power of two
  std::size_t size_ = 0;
  std::size_t spilled_bytes_ = 0;  // sum of entries' counts.heap_bytes()
};

}  // namespace ipd::core
