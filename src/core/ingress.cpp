#include "core/ingress.hpp"

#include <bit>
#include <cassert>

namespace ipd::core {

std::string IngressId::to_string() const {
  std::string out = "R" + std::to_string(router) + ".";
  if (ifaces.size() == 1) {
    out += std::to_string(ifaces.front());
    return out;
  }
  out += '{';
  for (std::size_t i = 0; i < ifaces.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(ifaces[i]);
  }
  out += '}';
  return out;
}

IngressCounts::Entry* IngressCounts::lower_bound(std::uint64_t key) noexcept {
  // Branchless: the step is a conditional move, so the search costs the
  // same whichever link a sample carries. On a 4-vCPU Xeon a lookup over
  // uniformly drawn links took 3.5 ns at 2 links, 7 at 8 and 16 at 394,
  // where the early-exit linear scan took 6, 15 and 146 ns; with one link
  // carrying 90 % of the hits the scan was at most 1 ns faster up to 12
  // links. So no linear cut-over.
  Entry* base = entries_.begin();
  std::size_t len = entries_.size();
  if (len == 0) return base;
  while (len > 1) {
    const std::size_t half = len / 2;
    base = base[half].first.key() < key ? base + half : base;
    len -= half;
  }
  return base + (base->first.key() < key);
}

void IngressCounts::add(topology::LinkId link, double n) noexcept {
  total_ += n;
  // Keep entries_ sorted ascending by link key: the canonical order makes
  // every derived quantity (top link, breakdowns, summation order of
  // totals) independent of the order in which samples arrived, which is
  // what lets split build aggregates from hash-ordered per-IP state
  // without perturbing engine output.
  Entry* const pos = lower_bound(link.key());
  if (pos != entries_.end() && pos->first == link) {
    pos->second += n;
    return;
  }
  entries_.insert(pos, {link, n});
}

void IngressCounts::subtract(topology::LinkId link, double n) noexcept {
  Entry* const pos = lower_bound(link.key());
  assert(pos != entries_.end() && pos->first == link && pos->second >= n);
  if (pos == entries_.end() || !(pos->first == link)) return;
  total_ -= n;
  pos->second -= n;
  if (pos->second > 0.0) return;
  entries_.erase(pos);
  // Dropping a link can take the size below the capacity the remaining
  // entries would have grown to; re-append them so the spill matches.
  if (entries_.capacity() != Entries::grown_capacity(entries_.size())) {
    Entries packed;
    for (const Entry& entry : entries_) packed.push_back(entry);
    entries_ = std::move(packed);
  }
}

double IngressCounts::count_for(topology::LinkId link) const noexcept {
  const Entry* const pos = lower_bound(link.key());
  return pos != entries_.end() && pos->first == link ? pos->second : 0.0;
}

double IngressCounts::count_for(const IngressId& ingress) const noexcept {
  double sum = 0.0;
  for (const auto& [l, c] : entries_) {
    if (ingress.matches(l)) sum += c;
  }
  return sum;
}

topology::LinkId IngressCounts::top_link() const noexcept {
  // entries_ is ascending by key, so strict `>` breaks ties toward the
  // lowest link key.
  topology::LinkId best{};
  double best_count = -1.0;
  for (const auto& [l, c] : entries_) {
    if (c > best_count) {
      best = l;
      best_count = c;
    }
  }
  return best;
}

std::vector<topology::RouterId> IngressCounts::routers() const {
  std::vector<topology::RouterId> out;
  for (const auto& [l, c] : entries_) {
    (void)c;
    bool seen = false;
    for (const auto r : out) {
      if (r == l.router) {
        seen = true;
        break;
      }
    }
    if (!seen) out.push_back(l.router);
  }
  return out;
}

double IngressCounts::count_for_router(topology::RouterId router) const noexcept {
  double sum = 0.0;
  for (const auto& [l, c] : entries_) {
    if (l.router == router) sum += c;
  }
  return sum;
}

std::vector<std::pair<topology::InterfaceIndex, double>>
IngressCounts::router_interfaces(topology::RouterId router) const {
  std::vector<std::pair<topology::InterfaceIndex, double>> out;
  for (const auto& [l, c] : entries_) {
    if (l.router == router) out.emplace_back(l.iface, c);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;  // deterministic tie-break
  });
  return out;
}

void IngressCounts::scale(double factor) noexcept {
  constexpr double kEps = 1e-6;
  total_ = 0.0;
  std::size_t kept = 0;
  for (auto& entry : entries_) {
    entry.second *= factor;
    if (entry.second > kEps) {
      entries_[kept++] = entry;
      total_ += entry.second;
    }
  }
  entries_.truncate(kept);
}

void IngressCounts::merge(const IngressCounts& other) noexcept {
  for (const auto& [l, c] : other.entries_) add(l, c);
}

bool IngressCounts::bit_equal(const IngressCounts& other) const noexcept {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  if (entries_.size() != other.entries_.size() ||
      bits(total_) != bits(other.total_)) {
    return false;
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (!(entries_[i].first == other.entries_[i].first) ||
        bits(entries_[i].second) != bits(other.entries_[i].second)) {
      return false;
    }
  }
  return true;
}

std::vector<std::pair<topology::LinkId, double>> IngressCounts::sorted_entries()
    const {
  std::vector<std::pair<topology::LinkId, double>> out;
  out.reserve(entries_.size());
  for (const auto& [l, c] : entries_) out.emplace_back(l, c);
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first.key() < b.first.key();  // deterministic tie-break
  });
  return out;
}

}  // namespace ipd::core
