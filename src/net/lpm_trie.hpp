// Generic binary longest-prefix-match trie.
//
// The mutable LPM structure: BGP RIB lookups use it, and the tests use it
// as the reference for core::LpmTable, the immutable flat table built from
// IPD output (§5.1 of the paper). One trie holds one address family.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "net/ip_address.hpp"
#include "net/prefix.hpp"

namespace ipd::net {

template <typename T>
class LpmTrie {
 public:
  explicit LpmTrie(Family family = Family::V4) : family_(family) {}

  Family family() const noexcept { return family_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Insert or overwrite the value at `prefix`.
  void insert(const Prefix& prefix, T value) {
    check_family(prefix);
    Node* node = &root_;
    for (int i = 0; i < prefix.length(); ++i) {
      const int b = prefix.address().bit(i) ? 1 : 0;
      if (!node->child[b]) node->child[b] = std::make_unique<Node>();
      node = node->child[b].get();
    }
    if (!node->value) ++size_;
    node->value = std::move(value);
  }

  /// Value at exactly `prefix`, or nullptr.
  const T* exact(const Prefix& prefix) const noexcept {
    const Node* node = find_node(prefix);
    return node && node->value ? &*node->value : nullptr;
  }

  T* exact(const Prefix& prefix) noexcept {
    Node* node = const_cast<Node*>(find_node(prefix));
    return node && node->value ? &*node->value : nullptr;
  }

  /// Longest-prefix match for `ip`: the value of the most specific stored
  /// prefix containing it, or nullptr if none.
  const T* lookup(const IpAddress& ip) const noexcept {
    if (ip.family() != family_) return nullptr;
    const Node* node = &root_;
    const T* best = node->value ? &*node->value : nullptr;
    for (int i = 0; i < ip.width(); ++i) {
      node = node->child[ip.bit(i) ? 1 : 0].get();
      if (!node) break;
      if (node->value) best = &*node->value;
    }
    return best;
  }

  /// Longest-prefix match returning the matched prefix as well.
  std::optional<std::pair<Prefix, const T*>> lookup_entry(
      const IpAddress& ip) const {
    if (ip.family() != family_) return std::nullopt;
    const Node* node = &root_;
    int best_len = -1;
    const T* best = nullptr;
    if (node->value) {
      best_len = 0;
      best = &*node->value;
    }
    for (int i = 0; i < ip.width(); ++i) {
      node = node->child[ip.bit(i) ? 1 : 0].get();
      if (!node) break;
      if (node->value) {
        best_len = i + 1;
        best = &*node->value;
      }
    }
    if (best_len < 0) return std::nullopt;
    return std::make_pair(Prefix(ip, best_len), best);
  }

  /// Remove the value at `prefix`. Returns true if a value was removed.
  /// (Interior nodes are left in place; fine for our workloads, where
  /// tables are rebuilt from scratch each bin.)
  bool erase(const Prefix& prefix) noexcept {
    Node* node = const_cast<Node*>(find_node(prefix));
    if (!node || !node->value) return false;
    node->value.reset();
    --size_;
    return true;
  }

  /// Visit every stored (prefix, value) pair in preorder.
  void visit(const std::function<void(const Prefix&, const T&)>& fn) const {
    visit_node(root_, Prefix::root(family_), fn);
  }

  void clear() noexcept {
    root_.child[0].reset();
    root_.child[1].reset();
    root_.value.reset();
    size_ = 0;
  }

 private:
  struct Node {
    std::unique_ptr<Node> child[2];
    std::optional<T> value;
  };

  void check_family(const Prefix& prefix) const {
    if (prefix.family() != family_) {
      throw std::invalid_argument("LpmTrie: family mismatch for " +
                                  prefix.to_string());
    }
  }

  const Node* find_node(const Prefix& prefix) const noexcept {
    if (prefix.family() != family_) return nullptr;
    const Node* node = &root_;
    for (int i = 0; i < prefix.length() && node; ++i) {
      node = node->child[prefix.address().bit(i) ? 1 : 0].get();
    }
    return node;
  }

  void visit_node(const Node& node, const Prefix& prefix,
                  const std::function<void(const Prefix&, const T&)>& fn) const {
    if (node.value) fn(prefix, *node.value);
    if (prefix.length() < prefix.width()) {
      if (node.child[0]) visit_node(*node.child[0], prefix.child(0), fn);
      if (node.child[1]) visit_node(*node.child[1], prefix.child(1), fn);
    }
  }

  Family family_;
  Node root_;
  std::size_t size_ = 0;
};

}  // namespace ipd::net
