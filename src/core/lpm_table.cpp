#include "core/lpm_table.hpp"

#include <iterator>

namespace ipd::core {

namespace {

/// A prefix as the closed range [first, last] of its family's address
/// keys, plus the row it maps to.
template <typename Key>
struct Span {
  Key first;
  Key last;
  std::uint32_t row;
};

/// Mask of the low `bits` bits of a 64-bit word (bits in [0, 64]).
constexpr std::uint64_t low_bits(int bits) noexcept {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// Flatten spans into intervals covering the whole key space [0, max].
///
/// `spans` is sorted by (first, length), and any two spans are nested or
/// disjoint, as CIDR prefixes are. The sweep keeps the spans enclosing the
/// current position on a stack, innermost on top, so each address maps to
/// the innermost (longest) prefix holding it, or to `none`. Ends are kept
/// inclusive and `next` is applied only below `max`, so nothing wraps.
template <typename Key, typename Next, typename Interval>
void flatten(const std::vector<Span<Key>>& spans, Key max, Next next,
             std::uint32_t none, std::vector<Interval>& out) {
  if (spans.empty()) return;
  // Starts arrive in non-decreasing order; a repeated start overrides the
  // interval just emitted, so no interval is empty.
  const auto emit = [&out](Key start, std::uint32_t row) {
    if (!out.empty() && out.back().start == start) out.pop_back();
    out.push_back({start, row});
  };
  std::vector<const Span<Key>*> open;
  const auto enclosing_row = [&open, none] {
    return open.empty() ? none : open.back()->row;
  };
  emit(Key{}, none);
  for (const Span<Key>& span : spans) {
    while (!open.empty() && open.back()->last < span.first) {
      const Key resume = next(open.back()->last);
      open.pop_back();
      emit(resume, enclosing_row());
    }
    emit(span.first, span.row);
    open.push_back(&span);
  }
  while (!open.empty()) {
    const Key last = open.back()->last;
    // Every enclosing span ends at or after `last`; at `max` all of them
    // reach the end of the space.
    if (last == max) break;
    open.pop_back();
    emit(next(last), enclosing_row());
  }
}

}  // namespace

LpmTable LpmTable::from_snapshot(const Snapshot& snapshot) {
  // Classified rows ordered by (prefix, snapshot position): IPv4 before
  // IPv6, then by (address, length), which is the order flatten() needs.
  // Of equal prefixes the last in the snapshot wins.
  std::vector<std::pair<net::Prefix, std::size_t>> order;
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    if (snapshot[i].classified) order.emplace_back(snapshot[i].range, i);
  }
  std::sort(order.begin(), order.end());

  LpmTable table;
  table.rows_.reserve(order.size());
  std::vector<Span<std::uint32_t>> spans4;
  std::vector<Span<Key6>> spans6;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto& [prefix, at] = order[k];
    if (k + 1 < order.size() && order[k + 1].first == prefix) continue;
    const auto row = static_cast<std::uint32_t>(table.rows_.size());
    table.rows_.push_back(Row{prefix, snapshot[at].ingress});
    const net::IpAddress& addr = prefix.address();
    const int host = prefix.host_bits();
    if (addr.is_v4()) {
      const auto first = addr.v4_value();
      spans4.push_back(
          {first, first | static_cast<std::uint32_t>(low_bits(host)), row});
    } else {
      spans6.push_back({Key6{addr.hi(), addr.lo()},
                        Key6{addr.hi() | low_bits(std::max(host - 64, 0)),
                             addr.lo() | low_bits(host)},
                        row});
    }
  }

  flatten(
      spans4, ~std::uint32_t{0}, [](std::uint32_t k) { return k + 1; },
      kUnmapped, table.v4_);
  flatten(
      spans6, Key6{~std::uint64_t{0}, ~std::uint64_t{0}},
      [](const Key6& k) {
        return Key6{k.lo == ~std::uint64_t{0} ? k.hi + 1 : k.hi, k.lo + 1};
      },
      kUnmapped, table.v6_);

  if (!table.v4_.empty()) {
    table.dir4_.resize((std::size_t{1} << 16) + 1);
    const std::size_t n = table.v4_.size();
    std::size_t i = 0;
    for (std::uint32_t h = 0; h < (1u << 16); ++h) {
      while (i + 1 < n && table.v4_[i + 1].start <= (h << 16)) ++i;
      table.dir4_[h] = static_cast<std::uint32_t>(i);
    }
    table.dir4_.back() = static_cast<std::uint32_t>(n - 1);
  }
  return table;
}

std::uint32_t LpmTable::find_v6(const net::IpAddress& ip) const noexcept {
  if (v6_.empty()) return kUnmapped;
  const Key6 key{ip.hi(), ip.lo()};
  const auto it = std::upper_bound(
      v6_.begin() + 1, v6_.end(), key,
      [](const Key6& k, const Interval<Key6>& iv) { return k < iv.start; });
  return std::prev(it)->row;
}

std::optional<std::pair<net::Prefix, IngressId>> LpmTable::lookup_entry(
    const net::IpAddress& ip) const {
  const std::uint32_t row = find(ip);
  if (row == kUnmapped) return std::nullopt;
  return std::make_pair(rows_[row].prefix, rows_[row].ingress);
}

}  // namespace ipd::core
