// Ingress identity and per-ingress sample accounting.
//
// Stage 1 counts flows per physical link (router, interface). Stage 2
// classifies a range to an IngressId: either a single link or a *bundle* —
// several interfaces of one router over which traffic is evenly balanced
// and which the ISP treats as one logical ingress.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "topology/ids.hpp"
#include "util/small_vec.hpp"

namespace ipd::core {

struct SnapshotAccess;  // snapshot serializer; see trie.hpp

/// A classified ingress point: one router plus one or more interfaces.
struct IngressId {
  topology::RouterId router = topology::kInvalidRouter;
  std::vector<topology::InterfaceIndex> ifaces;  // sorted, unique, size >= 1

  IngressId() = default;

  explicit IngressId(topology::LinkId link)
      : router(link.router), ifaces{link.iface} {}

  IngressId(topology::RouterId r, std::vector<topology::InterfaceIndex> set)
      : router(r), ifaces(std::move(set)) {
    std::sort(ifaces.begin(), ifaces.end());
    ifaces.erase(std::unique(ifaces.begin(), ifaces.end()), ifaces.end());
  }

  bool valid() const noexcept { return router != topology::kInvalidRouter; }
  bool is_bundle() const noexcept { return ifaces.size() > 1; }

  /// True if traffic on `link` counts as entering through this ingress.
  bool matches(topology::LinkId link) const noexcept {
    return link.router == router &&
           std::binary_search(ifaces.begin(), ifaces.end(), link.iface);
  }

  /// Representative physical link (lowest interface index).
  topology::LinkId primary_link() const noexcept {
    return topology::LinkId{router, ifaces.empty() ? topology::InterfaceIndex{0}
                                                   : ifaces.front()};
  }

  friend bool operator==(const IngressId&, const IngressId&) = default;

  /// Compact rendering, e.g. "R30.1" or "R30.{1,2}" for bundles.
  std::string to_string() const;
};

/// Per-ingress-link sample counters for one IPD range.
///
/// Counts are doubles because the decay function shrinks them
/// multiplicatively. The container is a flat vector kept sorted ascending
/// by link key at all times, and a link is found by a branchless binary
/// search: most ranges see one or two links, but monitoring ranges over
/// busy space reach hundreds, and a search stays cheap at both ends. The
/// canonical order makes totals, top-link selection and breakdowns
/// independent of sample arrival order, so building aggregates from
/// hash-ordered per-IP detail is output-neutral.
///
/// Monitoring ranges hold integer-valued counts below 2^53, so add() and
/// subtract() are exact in any order: subtracting a departed IP's counts
/// gives bit for bit what re-adding every survivor would.
class IngressCounts {
 public:
  /// Integer counts below this add and subtract exactly as doubles.
  static constexpr std::uint64_t kExactLimit = std::uint64_t{1} << 53;

  /// Flat entry storage: two links inline (the overwhelmingly common
  /// case), heap spill beyond.
  using Entries = util::SmallVec<util::PodPair<topology::LinkId, double>, 2>;

  void add(topology::LinkId link, double n = 1.0) noexcept;

  /// Take back `n` samples of `link` that add() put in. A link whose
  /// count reaches zero is dropped, and the storage then ends as adding
  /// the remaining counts to an empty IngressCounts would leave it: same
  /// entries, same capacity (so memory_bytes() does not drift).
  /// Precondition: `link` is present with a count of at least `n`
  /// (asserted; a Release build leaves the counts as they are if `link`
  /// is absent, rather than write past the entries).
  void subtract(topology::LinkId link, double n) noexcept;

  double total() const noexcept { return total_; }
  bool empty() const noexcept { return entries_.empty(); }
  std::size_t distinct_links() const noexcept { return entries_.size(); }

  double count_for(topology::LinkId link) const noexcept;

  /// Combined count over every interface of `ingress`.
  double count_for(const IngressId& ingress) const noexcept;

  /// Share of `ingress` in the total; 0 if no samples.
  double share_of(const IngressId& ingress) const noexcept {
    return total_ > 0.0 ? count_for(ingress) / total_ : 0.0;
  }

  /// The link with the highest count; ties break to the lowest link key.
  /// Precondition: !empty().
  topology::LinkId top_link() const noexcept;

  /// Distinct routers present.
  std::vector<topology::RouterId> routers() const;

  /// Combined count of all interfaces on `router`.
  double count_for_router(topology::RouterId router) const noexcept;

  /// Interfaces of `router` with their counts, descending by count.
  std::vector<std::pair<topology::InterfaceIndex, double>> router_interfaces(
      topology::RouterId router) const;

  /// Multiply every counter by `factor` (decay); drops entries below eps.
  void scale(double factor) noexcept;

  /// Merge another range's counters into this one (used by joins).
  void merge(const IngressCounts& other) noexcept;

  void clear() noexcept {
    entries_.clear();
    total_ = 0.0;
  }

  /// Entries sorted descending by count (for output breakdowns).
  std::vector<std::pair<topology::LinkId, double>> sorted_entries() const;

  /// Raw entries, always sorted ascending by link key (canonical order).
  const Entries& entries() const noexcept { return entries_; }

  /// Same links with bit-identical counts and total. Capacity is not
  /// compared; memory_bytes() covers it.
  bool bit_equal(const IngressCounts& other) const noexcept;

  /// Exact heap footprint in bytes: zero while the entries sit inline.
  std::size_t memory_bytes() const noexcept { return entries_.heap_bytes(); }

 private:
  friend struct SnapshotAccess;

  using Entry = Entries::value_type;

  /// First entry whose link key is not below `key` (end() if none).
  Entry* lower_bound(std::uint64_t key) noexcept;
  const Entry* lower_bound(std::uint64_t key) const noexcept {
    return const_cast<IngressCounts*>(this)->lower_bound(key);
  }

  Entries entries_;
  double total_ = 0.0;
};

}  // namespace ipd::core
