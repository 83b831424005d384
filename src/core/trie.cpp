#include "core/trie.hpp"

#include <algorithm>
#include <cassert>

namespace ipd::core {

void RangeNode::add_sample(util::Timestamp ts, const net::IpAddress& masked_ip,
                           topology::LinkId link, std::uint64_t n) {
  assert(state_ != State::Internal);
  assert(n >= 1 && "expire_before's exact subtraction needs weights >= 1");
  counts_.add(link, static_cast<double>(n));
  if (ts > last_update_) last_update_ = ts;
  if (state_ == State::Monitoring) ips_.add(masked_ip, ts, link, n);
}

void RangeNode::expire_before(util::Timestamp cutoff) {
  if (state_ != State::Monitoring || ips_.empty()) return;
  // Take each departing entry's counts back out of the aggregate. The
  // predicate runs once per erased entry (a survivor may be re-tested
  // after a backward shift, but only ever answers false), so every
  // departure is subtracted exactly once; the integer-valued sums make
  // the result bit-identical to rebuilding from the survivors.
  const std::size_t removed =
      ips_.erase_if([this, cutoff](const net::IpAddress&, const IpEntry& entry) {
        if (entry.last_seen >= cutoff) return false;
        for (const auto& [link, c] : entry.counts) {
          counts_.subtract(link, static_cast<double>(c));
        }
        return true;
      });
  if (removed == 0) return;
  // Give back the slack the departed entries occupied (this is the shrink
  // the old unordered_map could only approximate with rehash(0)).
  ips_.compact();
#ifndef NDEBUG
  const IngressCounts reference = rebuilt_counts();
  assert(counts_.bit_equal(reference) &&
         counts_.memory_bytes() == reference.memory_bytes());
#endif
}

IngressCounts RangeNode::rebuilt_counts() const {
  IngressCounts out;
  for (const auto& [ip, entry] : ips_) {
    (void)ip;
    for (const auto& [link, c] : entry.counts) {
      out.add(link, static_cast<double>(c));
    }
  }
  return out;
}

void RangeNode::classify(const IngressId& ingress, util::Timestamp now) {
  assert(state_ == State::Monitoring);
  ingress_ = ingress;
  state_ = State::Classified;
  classified_at_ = now;
  // "Once a prevalent ingress is found, all state is removed for efficiency
  // reasons, and only the total number of samples, the counters for the
  // respective ingresses, and the last timestamp are retained."
  ips_.clear();
}

void RangeNode::reset_to_monitoring() {
  state_ = State::Monitoring;
  ingress_ = IngressId{};
  classified_at_ = 0;
  ips_.clear();
  counts_.clear();
}

std::size_t RangeNode::memory_bytes() const noexcept {
  return ips_.memory_bytes() + counts_.memory_bytes() +
         ingress_.ifaces.capacity() * sizeof(ingress_.ifaces[0]);
}

IpdTrie::IpdTrie(net::Family family)
    : family_(family), pool_(std::make_unique<NodePool>()) {
  root_ = pool_->alloc(net::Prefix::root(family), NodeIndex{0});
  assert(root_ == 0);
  block0_ = pool_->block_base(0);
}

IpdTrie::~IpdTrie() { destroy_all(); }

void IpdTrie::destroy_all() noexcept {
  if (pool_ && root_ != kInvalidNode) {
    free_subtree(root_);
    root_ = kInvalidNode;
  }
  directory_.reset();
}

void IpdTrie::free_subtree(NodeIndex index) noexcept {
  RangeNode& n = resolve(index);
  if (n.child0_ != kInvalidNode) free_subtree(n.child0_);
  if (n.child1_ != kInvalidNode) free_subtree(n.child1_);
  pool_->free(index);
}

RangeNode& IpdTrie::locate(const net::IpAddress& ip) noexcept {
  // Hot path: one directory load for the top kDirectoryBits bits, then one
  // dependent load plus one add per remaining level — the same critical
  // path a pointer-linked trie would have. The address bits are a
  // top-aligned word shifted left once per level, so the direction flag is
  // register-only and ready long before the child edge arrives; the edge
  // itself is a precomputed byte offset (child_off_) indexed by that flag,
  // avoiding both a conditional move between the two index loads and the
  // ×sizeof multiply on the load-to-load chain. Children outside block 0
  // (tries past 4096 nodes) take the never-predicted-taken fallback
  // through full index resolution.
  if (directory_ == nullptr) return resolve(root_);
  std::byte* const base = reinterpret_cast<std::byte*>(block0_);
  std::uint64_t word = top_word(ip);
  RangeNode* node = &resolve(directory_[word >> (64 - kDirectoryBits)]);
  word <<= kDirectoryBits;
  const std::uint64_t rest = ip.lo();  // v6 bits 64..127; unused for v4
  int depth = kDirectoryBits;
  while (node->state_ == RangeNode::State::Internal) {
    const bool one = static_cast<std::int64_t>(word) < 0;
    const std::uint32_t off = node->child_off_[one];
    word <<= 1;
    if (++depth == 64) word = rest;  // v6 hi->lo crossover (v4 stays < 33)
    if (off != RangeNode::kNoOffset) [[likely]] {
      node = std::launder(reinterpret_cast<RangeNode*>(base + off));
    } else {
      node = &resolve(one ? node->child1_ : node->child0_);
    }
  }
  return *node;
}

void IpdTrie::write_directory(NodeIndex* directory, const net::Prefix& prefix,
                              NodeIndex entry) noexcept {
  const int len = prefix.length();
  assert(len <= kDirectoryBits);
  const std::uint64_t first =
      top_word(prefix.address()) >> (64 - kDirectoryBits);
  std::fill_n(directory + first, std::size_t{1} << (kDirectoryBits - len),
              entry);
}

std::unique_ptr<NodeIndex[]> IpdTrie::filled_directory() const {
  assert(!resolve(root_).is_leaf());
  auto out = std::make_unique_for_overwrite<NodeIndex[]>(kDirectoryEntries);
  std::vector<NodeIndex> stack{root_};
  while (!stack.empty()) {
    const RangeNode& n = resolve(stack.back());
    stack.pop_back();
    if (n.state_ == RangeNode::State::Internal &&
        n.prefix_.length() < kDirectoryBits) {
      stack.push_back(n.child0_);
      stack.push_back(n.child1_);
    } else {
      write_directory(out.get(), n.prefix_, n.self_);
    }
  }
  return out;
}

void IpdTrie::refill_directory() {
  directory_ = resolve(root_).is_leaf() ? nullptr : filled_directory();
}

bool IpdTrie::split(RangeNode& node) {
  if (node.state_ != RangeNode::State::Monitoring) return false;
  const int len = node.prefix_.length();
  if (len >= node.prefix_.width()) return false;

  // alloc() may move no existing node (blocks are stable), so `node` stays
  // valid across both allocations.
  const NodeIndex c0 =
      pool_->alloc(node.prefix_.child(0), kInvalidNode, node.self_);
  const NodeIndex c1 =
      pool_->alloc(node.prefix_.child(1), kInvalidNode, node.self_);
  RangeNode& child0 = resolve(c0);
  RangeNode& child1 = resolve(c1);
  child0.self_ = c0;
  child1.self_ = c1;
  node.child0_ = c0;
  node.child1_ = c1;
  node.child_off_[0] = offset_of(c0);
  node.child_off_[1] = offset_of(c1);
  nodes_.fetch_add(2, std::memory_order_relaxed);
  leaves_.fetch_add(1, std::memory_order_relaxed);  // one leaf becomes two

  if (len < kDirectoryBits) {
    if (len == 0) {
      directory_ =
          std::make_unique_for_overwrite<NodeIndex[]>(kDirectoryEntries);
    }
    write_directory(directory_.get(), child0.prefix_, c0);
    write_directory(directory_.get(), child1.prefix_, c1);
  }

  // Each child table is allocated once, at the capacity its entries reach
  // by sequential inserts, instead of doubling its way there.
  std::size_t high = 0;
  for (const auto& kv : node.ips_) high += kv.first.bit(len);
  child0.ips_.reserve(node.ips_.size() - high);
  child1.ips_.reserve(high);
  node.ips_.drain([&](const net::IpAddress& ip, IpEntry&& entry) {
    RangeNode& child = ip.bit(len) ? child1 : child0;
    for (const auto& [link, c] : entry.counts) {
      child.counts_.add(link, static_cast<double>(c));
    }
    if (entry.last_seen > child.last_update_) child.last_update_ = entry.last_seen;
    child.ips_.insert_moved(ip, std::move(entry));
  });
  node.state_ = RangeNode::State::Internal;
  node.counts_.clear();
  node.last_update_ = 0;
  return true;
}

bool IpdTrie::join_children(RangeNode& parent) {
  RangeNode* a = child(parent, 0);
  RangeNode* b = child(parent, 1);
  if (!a || !b) return false;
  if (a->state_ != RangeNode::State::Classified ||
      b->state_ != RangeNode::State::Classified) {
    return false;
  }
  if (!(a->ingress_ == b->ingress_)) return false;

  parent.state_ = RangeNode::State::Classified;
  parent.ingress_ = a->ingress_;
  parent.counts_ = a->counts_;
  parent.counts_.merge(b->counts_);
  parent.last_update_ = std::max(a->last_update_, b->last_update_);
  parent.classified_at_ = std::min(a->classified_at_, b->classified_at_);
  release_children(parent);
  return true;
}

bool IpdTrie::compact_children(RangeNode& parent) {
  RangeNode* a = child(parent, 0);
  RangeNode* b = child(parent, 1);
  if (!a || !b) return false;
  const auto empty_monitoring = [](const RangeNode& n) {
    return n.state_ == RangeNode::State::Monitoring && n.ips_.empty() &&
           n.counts_.empty();
  };
  if (!empty_monitoring(*a) || !empty_monitoring(*b)) return false;
  parent.state_ = RangeNode::State::Monitoring;
  parent.last_update_ = 0;
  release_children(parent);
  return true;
}

void IpdTrie::release_children(RangeNode& parent) noexcept {
  pool_->free(parent.child0_);
  pool_->free(parent.child1_);
  parent.child0_ = kInvalidNode;
  parent.child1_ = kInvalidNode;
  parent.child_off_[0] = RangeNode::kNoOffset;
  parent.child_off_[1] = RangeNode::kNoOffset;
  nodes_.fetch_sub(2, std::memory_order_relaxed);
  leaves_.fetch_sub(1, std::memory_order_relaxed);
  const int len = parent.prefix_.length();
  if (len == 0) {
    directory_.reset();  // the root is a leaf again
  } else if (len < kDirectoryBits) {
    write_directory(directory_.get(), parent.prefix_, parent.self_);
  }
}

void IpdTrie::for_each_leaf(const std::function<void(RangeNode&)>& fn) {
  visit_leaves(root(), fn);
}

void IpdTrie::for_each_leaf(const std::function<void(const RangeNode&)>& fn) const {
  const_cast<IpdTrie*>(this)->visit_leaves(
      const_cast<IpdTrie*>(this)->root(),
      [&fn](RangeNode& n) { fn(static_cast<const RangeNode&>(n)); });
}

void IpdTrie::for_each_leaf_from(
    const RangeNode& node,
    const std::function<void(const RangeNode&)>& fn) const {
  const_cast<IpdTrie*>(this)->visit_leaves(
      const_cast<RangeNode&>(node),
      [&fn](RangeNode& n) { fn(static_cast<const RangeNode&>(n)); });
}

void IpdTrie::post_order(const std::function<void(RangeNode&)>& fn) {
  visit_post(root(), fn);
}

void IpdTrie::post_order_from(RangeNode& node,
                              const std::function<void(RangeNode&)>& fn) {
  visit_post(node, fn);
}

void IpdTrie::visit_leaves(RangeNode& node,
                           const std::function<void(RangeNode&)>& fn) {
  if (node.state_ == RangeNode::State::Internal) {
    visit_leaves(resolve(node.child0_), fn);
    visit_leaves(resolve(node.child1_), fn);
    return;
  }
  fn(node);
}

void IpdTrie::visit_post(RangeNode& node,
                         const std::function<void(RangeNode&)>& fn) {
  if (node.state_ == RangeNode::State::Internal) {
    // Children first; they may themselves split (their new children are
    // intentionally not visited in this pass).
    visit_post(resolve(node.child0_), fn);
    visit_post(resolve(node.child1_), fn);
  }
  fn(node);
}

TrieCensus IpdTrie::census(std::vector<std::uint64_t>* weights) const {
  // One iterative walk over every node: interior nodes own no heap today,
  // but the exact byte count does not rely on that. Every node's heap is
  // O(1) to read (FlatIpTable keeps its spill sum), so the walk is
  // O(nodes), not O(per-IP slots).
  TrieCensus out;
  out.memory_bytes = pool_->bytes() + directory_bytes();
#ifndef NDEBUG
  if (directory_ != nullptr) {
    const std::unique_ptr<NodeIndex[]> fresh = filled_directory();
    assert(std::equal(fresh.get(), fresh.get() + kDirectoryEntries,
                      directory_.get()));
  } else {
    assert(resolve(root_).is_leaf());
  }
#endif
  if (weights != nullptr) weights->resize(pool_->high_water());
  // Internal nodes in pre-order, summed in reverse once the walk is done:
  // a node's children always come after it.
  std::vector<NodeIndex> internal;
  std::vector<NodeIndex> stack{root_};
  while (!stack.empty()) {
    const NodeIndex index = stack.back();
    const RangeNode& n = resolve(index);
    stack.pop_back();
    assert(n.ips_.memory_bytes() == n.ips_.recounted_memory_bytes());
    out.memory_bytes += n.memory_bytes();
    switch (n.state_) {
      case RangeNode::State::Internal:
        // The engine walks right after the cycle, whose workers touched
        // most nodes last, so nodes tend to miss here: start both
        // children's three lines now (the low child is visited next, the
        // high one after the low subtree, which is often a single leaf).
        for (const NodeIndex child : {n.child0_, n.child1_}) {
          const char* line = reinterpret_cast<const char*>(&resolve(child));
          __builtin_prefetch(line);
          __builtin_prefetch(line + 64);
          __builtin_prefetch(line + 128);
        }
        stack.push_back(n.child1_);
        stack.push_back(n.child0_);
        if (weights != nullptr) internal.push_back(index);
        break;
      case RangeNode::State::Classified:
        ++out.classified;
        if (weights != nullptr) (*weights)[index] = 1;
        break;
      case RangeNode::State::Monitoring:
        ++out.monitoring;
        out.tracked_ips += n.ips_.size();
        if (weights != nullptr) (*weights)[index] = 1 + n.ips_.capacity();
        break;
    }
  }
  for (auto it = internal.rbegin(); it != internal.rend(); ++it) {
    const RangeNode& n = resolve(*it);
    (*weights)[*it] = (*weights)[n.child0_] + (*weights)[n.child1_];
  }
  return out;
}

std::size_t IpdTrie::memory_bytes() const { return census().memory_bytes; }

}  // namespace ipd::core
