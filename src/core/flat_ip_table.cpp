#include "core/flat_ip_table.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <new>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace ipd::core {

std::size_t FlatIpTable::capacity_for(std::size_t n) noexcept {
  if (n == 0) return 0;
  std::size_t cap = kMinCapacity;
  while (cap < 2 * n) cap <<= 1;
  return cap;
}

namespace {

/// Sequential reference semantics for one op (also the tail/fallback path).
void apply_one(const FlatIpTable::ApplyOp& op) {
  op.table->add(*op.key, op.ts, op.link, op.n);
}

}  // namespace

void FlatIpTable::add(const net::IpAddress& key, util::Timestamp ts,
                      topology::LinkId link, std::uint64_t n) {
  IpEntry& entry = find_or_insert(key);
  if (ts > entry.last_seen) entry.last_seen = ts;
  add_count(entry, link, n);
}

void FlatIpTable::apply_many(std::span<const ApplyOp> ops) {
  // Chains the out-of-order window can't span: keep this many probe walks
  // in flight. Each visit touches one slot and prefetches the next, so a
  // walk gets (kProbeWalks - 1) other visits' worth of time for its line
  // to arrive.
  constexpr std::size_t kProbeWalks = 16;
  if (ops.size() < 2 * kProbeWalks) {
    // Too few ops to fill the walks: the plain loop, with each op's chain
    // start prefetched a few ops ahead.
    constexpr std::size_t kAhead = 8;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i + kAhead < ops.size()) {
        ops[i + kAhead].table->prefetch(*ops[i + kAhead].key);
      }
      apply_one(ops[i]);
    }
    return;
  }
  struct Walk {
    FlatIpTable* table;
    const net::IpAddress* key;
    std::size_t slot;
    std::uint32_t op;
  };
  // Misses insert, and insertion order fixes slot placement, growth
  // points, and future chain shapes — so misses are deferred and replayed
  // in span order below. Walk completion order is arbitrary, hence the
  // sort. Steady-state batches are nearly all hits, so this stays empty.
  std::vector<std::uint32_t> deferred;
  // find_or_insert checks for growth before it looks the key up, so in
  // the sequential loop a hit grows a table sitting at its load trigger.
  // Tables that may owe such a growth at the end: ones a hit found at the
  // trigger, plus (below) ones a deferred insert left at it. Rare.
  std::vector<FlatIpTable*> owed;
  Walk walks[kProbeWalks];
  std::size_t next = 0;
  std::size_t active = 0;
  const auto prefetch_slot = [](const Walk& w) {
    const char* p =
        reinterpret_cast<const char*>(&w.table->slots_[w.slot]);
    __builtin_prefetch(p, 1, 3);
    __builtin_prefetch(p + 64, 1, 3);
  };
  // Start the next op's walk in `w`; returns false once ops are drained.
  // Empty tables miss without a walk.
  const auto start = [&](Walk& w) {
    while (next < ops.size()) {
      const std::uint32_t idx = static_cast<std::uint32_t>(next++);
      const ApplyOp& op = ops[idx];
      if (op.table->capacity_ == 0) {
        deferred.push_back(idx);
        continue;
      }
      w.table = op.table;
      w.key = op.key;
      w.slot = op.table->ideal_slot(*op.key);
      w.op = idx;
      prefetch_slot(w);
      return true;
    }
    return false;
  };
  while (active < kProbeWalks && start(walks[active])) ++active;
  while (active > 0) {
    for (std::size_t s = 0; s < active;) {
      Walk& w = walks[s];
      Slot& slot = w.table->slots_[w.slot];
      if (!slot.used) {
        deferred.push_back(w.op);
      } else if (slot.kv.first == *w.key) {
        const ApplyOp& op = ops[w.op];
        IpEntry& entry = slot.kv.second;
        if (op.ts > entry.last_seen) entry.last_seen = op.ts;
        w.table->add_count(entry, op.link, op.n);
        if (w.table->at_growth_trigger()) owed.push_back(w.table);
      } else {
        w.slot = (w.slot + 1) & (w.table->capacity_ - 1);
        prefetch_slot(w);
        ++s;
        continue;
      }
      if (start(w)) {
        ++s;
      } else {
        walks[s] = walks[--active];  // re-examine the moved walk at s
      }
    }
  }
  std::sort(deferred.begin(), deferred.end());
  for (const std::uint32_t idx : deferred) apply_one(ops[idx]);
  for (const std::uint32_t idx : deferred) {
    if (ops[idx].table->at_growth_trigger()) owed.push_back(ops[idx].table);
  }
  if (owed.empty()) return;
  // A hit-triggered growth re-homes the same entries the table's next
  // insert would have (size is unchanged in between), so only a table
  // still at its trigger whose last op was a hit owes one. Find each
  // candidate's last op walking back from the end.
  std::erase_if(owed,
                [](const FlatIpTable* t) { return !t->at_growth_trigger(); });
  std::sort(owed.begin(), owed.end());
  owed.erase(std::unique(owed.begin(), owed.end()), owed.end());
  for (std::size_t i = ops.size(); i-- > 0 && !owed.empty();) {
    const auto it = std::find(owed.begin(), owed.end(), ops[i].table);
    if (it == owed.end()) continue;
    owed.erase(it);
    if (!std::binary_search(deferred.begin(), deferred.end(),
                            static_cast<std::uint32_t>(i))) {
      ops[i].table->rehash(ops[i].table->capacity_ * 2);
    }
  }
}

FlatIpTable::Slot* FlatIpTable::allocate_slots(std::size_t n) {
  const std::size_t bytes = n * sizeof(Slot);
  if (bytes < kHugePageBytes) return new Slot[n];
  void* raw = ::operator new(bytes, std::align_val_t{kHugePageBytes});
#if defined(__linux__)
  // Advisory only: without THP the array just stays on base pages.
  madvise(raw, bytes, MADV_HUGEPAGE);
#endif
  Slot* slots = static_cast<Slot*>(raw);
  std::uninitialized_default_construct_n(slots, n);
  return slots;
}

void FlatIpTable::free_slots(Slot* slots, std::size_t n) noexcept {
  if (slots == nullptr) return;
  if (n * sizeof(Slot) < kHugePageBytes) {
    delete[] slots;
    return;
  }
  std::destroy_n(slots, n);
  ::operator delete(slots, std::align_val_t{kHugePageBytes});
}

IpEntry& FlatIpTable::find_or_insert(const net::IpAddress& key) {
  if (at_growth_trigger()) {
    rehash(capacity_ == 0 ? kMinCapacity : capacity_ * 2);
  }
  std::size_t i = ideal_slot(key);
  while (slots_[i].used) {
    if (slots_[i].kv.first == key) return slots_[i].kv.second;
    i = (i + 1) & (capacity_ - 1);
  }
  Slot& slot = slots_[i];
  slot.kv.first = key;
  slot.used = true;
  ++size_;
  return slot.kv.second;
}

const IpEntry* FlatIpTable::find(const net::IpAddress& key) const noexcept {
  if (size_ == 0) return nullptr;
  std::size_t i = ideal_slot(key);
  while (slots_[i].used) {
    if (slots_[i].kv.first == key) return &slots_[i].kv.second;
    i = (i + 1) & (capacity_ - 1);
  }
  return nullptr;
}

void FlatIpTable::insert_moved(const net::IpAddress& key, IpEntry&& entry) {
  IpEntry& dst = find_or_insert(key);
  assert(dst.total == 0 && "insert_moved requires an absent key");
  dst = std::move(entry);
  spilled_bytes_ += dst.counts.heap_bytes();
}

void FlatIpTable::compact() {
  // Hysteresis: only shrink when at least three quarters of the array
  // would be reclaimed. Expiry trims a few entries per cycle, and a table
  // that shrinks on every trim is regrown by the next minute of ingest —
  // two full copies per leaf per cycle for no retained memory. Mass
  // removals (classify, big expirations) still collapse the table.
  const std::size_t target = capacity_for(size_);
  if (target <= capacity_ / 4) rehash(target);
}

std::size_t FlatIpTable::recounted_memory_bytes() const noexcept {
  std::size_t bytes = capacity_ * sizeof(Slot);
  for (const auto& [ip, entry] : *this) {
    (void)ip;
    bytes += entry.counts.heap_bytes();
  }
  return bytes;
}

void FlatIpTable::rehash(std::size_t new_capacity) {
  assert(new_capacity >= capacity_for(size_) || new_capacity == 0);
  Slot* old_slots = slots_;
  const std::size_t old_capacity = capacity_;
  slots_ = new_capacity != 0 ? allocate_slots(new_capacity) : nullptr;
  capacity_ = new_capacity;
  for (std::size_t i = 0; i < old_capacity; ++i) {
    Slot& src = old_slots[i];
    if (!src.used) continue;
    std::size_t j = ideal_slot(src.kv.first);
    while (slots_[j].used) j = (j + 1) & (capacity_ - 1);
    slots_[j].kv = std::move(src.kv);
    slots_[j].used = true;
  }
  free_slots(old_slots, old_capacity);
}

/// Backward-shift deletion at slot `i` (classic tombstone-free open
/// addressing): walk the probe chain after the hole and move back every
/// entry whose ideal slot does not lie cyclically within (hole, entry].
/// The caller adjusts size_.
void FlatIpTable::erase_slot(std::size_t i) noexcept {
  const std::size_t mask = capacity_ - 1;
  for (;;) {
    slots_[i].kv = value_type{};  // releases the entry's spilled counters
    slots_[i].used = false;
    std::size_t j = i;
    for (;;) {
      j = (j + 1) & mask;
      if (!slots_[j].used) return;
      const std::size_t h = ideal_slot(slots_[j].kv.first);
      const bool reachable =
          i <= j ? (h > i && h <= j) : (h > i || h <= j);
      if (!reachable) {
        slots_[i].kv = std::move(slots_[j].kv);
        slots_[i].used = true;
        i = j;
        break;
      }
    }
  }
}

void FlatIpTable::destroy() noexcept {
  free_slots(slots_, capacity_);
  slots_ = nullptr;
  capacity_ = 0;
  size_ = 0;
  spilled_bytes_ = 0;
}

}  // namespace ipd::core
