// Longest-prefix-match lookup table over IPD output.
//
// Validation and downstream consumers (traffic engineering, dashboards)
// resolve an arbitrary IP to its detected ingress point via this table,
// rebuilt from each (5-minute) snapshot as in §5.1 of the paper.
//
// A table is immutable once built. Each family's classified prefixes are
// flattened into a sorted array of disjoint address intervals that covers
// the whole address space; every interval names the row of its longest
// matching prefix, or no row. IPv4 lookups go through a directory on the
// top 16 address bits, so a lookup is one directory load plus a search of
// the few intervals inside that /16. IPv6 lookups binary-search the
// interval starts. See DESIGN.md, "LPM table".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/output.hpp"
#include "net/ip_address.hpp"
#include "net/prefix.hpp"

namespace ipd::core {

class LpmTable {
 public:
  /// Result of lookup(): a non-owning handle to the matched row's ingress,
  /// empty for unmapped address space. It points into the table, so it is
  /// valid only while the table is alive (for a published table: while
  /// the caller holds the shared_ptr it got from the publisher).
  class Hit {
   public:
    constexpr Hit() noexcept = default;
    constexpr explicit Hit(const IngressId* ingress) noexcept
        : ingress_(ingress) {}

    constexpr bool has_value() const noexcept { return ingress_ != nullptr; }
    constexpr explicit operator bool() const noexcept { return has_value(); }
    /// Precondition: has_value().
    constexpr const IngressId& operator*() const noexcept { return *ingress_; }
    constexpr const IngressId* operator->() const noexcept { return ingress_; }

   private:
    const IngressId* ingress_ = nullptr;
  };

  /// The empty table: every lookup misses.
  LpmTable() = default;

  /// Build from the classified rows of a snapshot. When a prefix appears
  /// in several classified rows, the last one wins.
  static LpmTable from_snapshot(const Snapshot& snapshot);

  /// Detected ingress for `ip`, or an empty handle if unmapped.
  Hit lookup(const net::IpAddress& ip) const noexcept {
    const std::uint32_t row = find(ip);
    return row == kUnmapped ? Hit{} : Hit{&rows_[row].ingress};
  }

  /// Detected ingress plus the matching IPD prefix.
  std::optional<std::pair<net::Prefix, IngressId>> lookup_entry(
      const net::IpAddress& ip) const;

  /// Number of distinct classified prefixes.
  std::size_t size() const noexcept { return rows_.size(); }

 private:
  struct Row {
    net::Prefix prefix;
    IngressId ingress;
  };

  /// An IPv6 address as one 128-bit key (ordered hi word first).
  struct Key6 {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    friend constexpr auto operator<=>(const Key6&, const Key6&) = default;
  };

  /// Addresses from `start` up to the next interval's start map to `row`.
  template <typename Key>
  struct Interval {
    Key start;
    std::uint32_t row;
  };

  static constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};

  /// Row of the longest prefix holding `ip`, or kUnmapped.
  std::uint32_t find(const net::IpAddress& ip) const noexcept {
    return ip.is_v4() ? find_v4(ip.v4_value()) : find_v6(ip);
  }

  std::uint32_t find_v4(std::uint32_t addr) const noexcept {
    if (dir4_.empty()) return kUnmapped;
    // The interval holding `addr` lies between those holding the first
    // address of its /16 and of the next /16.
    std::uint32_t i = dir4_[addr >> 16];
    const std::uint32_t last = dir4_[(addr >> 16) + 1];
    if (i != last) {
      const auto* it = std::upper_bound(
          v4_.data() + i + 1, v4_.data() + last + 1, addr,
          [](std::uint32_t a, const Interval<std::uint32_t>& iv) {
            return a < iv.start;
          });
      i = static_cast<std::uint32_t>(it - v4_.data()) - 1;
    }
    return v4_[i].row;
  }

  std::uint32_t find_v6(const net::IpAddress& ip) const noexcept;

  std::vector<Row> rows_;
  // Per family: intervals sorted by start, the first starting at address
  // 0; empty when the family has no rows.
  std::vector<Interval<std::uint32_t>> v4_;
  std::vector<Interval<Key6>> v6_;
  // dir4_[h]: index of the interval holding address h << 16, for h in
  // [0, 65536); dir4_[65536] is the last interval. Empty iff v4_ is.
  std::vector<std::uint32_t> dir4_;
};

}  // namespace ipd::core
