// Longest-prefix-match lookup table over IPD output.
//
// Validation and downstream consumers (traffic engineering, dashboards)
// resolve an arbitrary IP to its detected ingress point via this table,
// rebuilt from each (5-minute) snapshot as in §5.1 of the paper.
//
// A table is immutable once built. Each family's classified prefixes are
// flattened into a sorted array of disjoint address intervals that covers
// the whole address space; every interval names the row of its longest
// matching prefix, or no row. The interval starts are kept apart from the
// rows they map to (IPv6 starts as hi and lo words). Both families go
// through a directory on the top 16 address bits, so a lookup is two
// directory loads plus a branch-free halving search of the intervals
// inside that bucket (an IPv4 /16 or an IPv6 /16). See DESIGN.md, "LPM
// table".
#pragma once

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

  static constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};

  __extension__ using U128 = unsigned __int128;

  /// Row of the longest prefix holding `ip`, or kUnmapped.
  std::uint32_t find(const net::IpAddress& ip) const noexcept {
    return ip.is_v4() ? find_v4(ip.v4_value()) : find_v6(ip.hi(), ip.lo());
  }

  // The interval holding a key lies between those holding the first key
  // of its directory bucket and of the next bucket.
  std::uint32_t find_v4(std::uint32_t addr) const noexcept {
    if (dir4_.empty()) return kUnmapped;
    const std::uint32_t h = addr >> 16;
    const std::uint32_t* start = start4_.data();
    return row4_[search(dir4_[h], dir4_[h + 1],
                        [start, addr](std::uint32_t i) {
                          return start[i] <= addr;
                        })];
  }

  std::uint32_t find_v6(std::uint64_t hi, std::uint64_t lo) const noexcept {
    if (dir6_.empty()) return kUnmapped;
    const auto h = static_cast<std::uint32_t>(hi >> 48);
    const std::uint64_t* start_hi = hi6_.data();
    const std::uint64_t* start_lo = lo6_.data();
    // One 128-bit compare (a compare and a subtract-with-borrow) where two
    // word compares would branch.
    const U128 key = (U128{hi} << 64) | lo;
    return row6_[search(dir6_[h], dir6_[h + 1], [=](std::uint32_t i) {
      return ((U128{start_hi[i]} << 64) | start_lo[i]) <= key;
    })];
  }

  /// Last index in [first, last] whose interval starts at or before the
  /// key (`starts_at_or_before(i)`), given that interval `first` does.
  /// Each step halves the candidates with a select, not a branch, so the
  /// step count depends only on the span's length.
  template <typename StartsAtOrBefore>
  static std::uint32_t search(std::uint32_t first, std::uint32_t last,
                              StartsAtOrBefore starts_at_or_before) noexcept {
    std::uint32_t n = last - first + 1;
    while (n > 1) {
      const std::uint32_t half = n / 2;
      first = starts_at_or_before(first + half) ? first + half : first;
      n -= half;
    }
    return first;
  }

  std::vector<Row> rows_;
  // Per family, the intervals sorted by start, the first starting at
  // address 0, as parallel arrays: the starts (IPv6: hi and lo words) and
  // the row each interval maps to. All empty when the family has no rows.
  std::vector<std::uint32_t> start4_;
  std::vector<std::uint32_t> row4_;
  std::vector<std::uint64_t> hi6_;
  std::vector<std::uint64_t> lo6_;
  std::vector<std::uint32_t> row6_;
  // Directory on the top 16 address bits: dir[h] is the index of the
  // interval holding the first address of bucket h (IPv4: h << 16; IPv6:
  // hi word h << 48, lo word 0), for h in [0, 65536); dir[65536] is the
  // last interval. Empty iff the family's intervals are.
  std::vector<std::uint32_t> dir4_;
  std::vector<std::uint32_t> dir6_;
};

}  // namespace ipd::core
