#include "core/lpm_table.hpp"

#include <algorithm>

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

/// An IPv6 address as one 128-bit key (ordered hi word first).
struct Key6 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend constexpr auto operator<=>(const Key6&, const Key6&) = default;
};

/// Directory buckets per family: one per value of the top 16 key bits.
constexpr std::uint32_t kBuckets = std::uint32_t{1} << 16;

/// Flatten spans into intervals covering the whole key space [0, max]:
/// `push_start` appends each interval's start to the family's start
/// arrays and `rows` gets the row it maps to.
///
/// `spans` is sorted by (first, length), and any two spans are nested or
/// disjoint, as CIDR prefixes are. The sweep keeps the spans enclosing the
/// current position on a stack, innermost on top, so each address maps to
/// the innermost (longest) prefix holding it, or to `none`. Ends are kept
/// inclusive and `next` is applied only below `max`, so nothing wraps.
template <typename Key, typename Next, typename PushStart>
void flatten(const std::vector<Span<Key>>& spans, Key max, Next next,
             std::uint32_t none, PushStart push_start,
             std::vector<std::uint32_t>& rows) {
  if (spans.empty()) return;
  // Starts arrive in non-decreasing order; a repeated start overrides the
  // interval just emitted, so no interval is empty.
  Key last_start{};
  const auto emit = [&](Key start, std::uint32_t row) {
    if (!rows.empty() && last_start == start) {
      rows.back() = row;
      return;
    }
    push_start(start);
    rows.push_back(row);
    last_start = start;
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

/// The directory over `n` intervals: entry h is the last interval that
/// starts at or before the first key of bucket h
/// (`starts_at_or_before(i, h)`), and entry kBuckets the last interval.
template <typename StartsAtOrBefore>
std::vector<std::uint32_t> directory(std::size_t n,
                                     StartsAtOrBefore starts_at_or_before) {
  std::vector<std::uint32_t> dir(std::size_t{kBuckets} + 1);
  std::size_t i = 0;
  for (std::uint32_t h = 0; h < kBuckets; ++h) {
    while (i + 1 < n && starts_at_or_before(i + 1, h)) ++i;
    dir[h] = static_cast<std::uint32_t>(i);
  }
  dir[kBuckets] = static_cast<std::uint32_t>(n - 1);
  return dir;
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
      kUnmapped, [&](std::uint32_t k) { table.start4_.push_back(k); },
      table.row4_);
  flatten(
      spans6, Key6{~std::uint64_t{0}, ~std::uint64_t{0}},
      [](const Key6& k) {
        return Key6{k.lo == ~std::uint64_t{0} ? k.hi + 1 : k.hi, k.lo + 1};
      },
      kUnmapped,
      [&](const Key6& k) {
        table.hi6_.push_back(k.hi);
        table.lo6_.push_back(k.lo);
      },
      table.row6_);

  if (!table.row4_.empty()) {
    table.dir4_ = directory(table.row4_.size(), [&](std::size_t i,
                                                    std::uint32_t h) {
      return table.start4_[i] <= (h << 16);
    });
  }
  if (!table.row6_.empty()) {
    table.dir6_ = directory(table.row6_.size(), [&](std::size_t i,
                                                    std::uint32_t h) {
      const std::uint64_t hi = std::uint64_t{h} << 48;
      return table.hi6_[i] < hi || (table.hi6_[i] == hi && table.lo6_[i] == 0);
    });
  }
  return table;
}

std::optional<std::pair<net::Prefix, IngressId>> LpmTable::lookup_entry(
    const net::IpAddress& ip) const {
  const std::uint32_t row = find(ip);
  if (row == kUnmapped) return std::nullopt;
  return std::make_pair(rows_[row].prefix, rows_[row].ingress);
}

}  // namespace ipd::core
