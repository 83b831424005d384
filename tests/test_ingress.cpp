#include "core/ingress.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

namespace ipd::core {
namespace {

using topology::LinkId;

TEST(IngressId, SingleLink) {
  const IngressId ingress(LinkId{5, 2});
  EXPECT_TRUE(ingress.valid());
  EXPECT_FALSE(ingress.is_bundle());
  EXPECT_TRUE(ingress.matches(LinkId{5, 2}));
  EXPECT_FALSE(ingress.matches(LinkId{5, 3}));
  EXPECT_FALSE(ingress.matches(LinkId{6, 2}));
  EXPECT_EQ(ingress.primary_link(), (LinkId{5, 2}));
  EXPECT_EQ(ingress.to_string(), "R5.2");
}

TEST(IngressId, BundleMatchesAllMembers) {
  const IngressId bundle(7, {3, 1});
  EXPECT_TRUE(bundle.is_bundle());
  EXPECT_TRUE(bundle.matches(LinkId{7, 1}));
  EXPECT_TRUE(bundle.matches(LinkId{7, 3}));
  EXPECT_FALSE(bundle.matches(LinkId{7, 2}));
  EXPECT_EQ(bundle.primary_link(), (LinkId{7, 1}));  // lowest iface
  EXPECT_EQ(bundle.to_string(), "R7.{1,3}");
}

TEST(IngressId, ConstructionSortsAndDedupes) {
  const IngressId bundle(1, {4, 2, 4, 2});
  EXPECT_EQ(bundle.ifaces, (std::vector<topology::InterfaceIndex>{2, 4}));
}

TEST(IngressId, DefaultIsInvalid) {
  const IngressId none;
  EXPECT_FALSE(none.valid());
}

TEST(IngressCounts, AddAndTotals) {
  IngressCounts counts;
  EXPECT_TRUE(counts.empty());
  counts.add(LinkId{1, 0}, 10);
  counts.add(LinkId{1, 1}, 5);
  counts.add(LinkId{1, 0}, 2);
  EXPECT_DOUBLE_EQ(counts.total(), 17.0);
  EXPECT_EQ(counts.distinct_links(), 2u);
  EXPECT_DOUBLE_EQ(counts.count_for(LinkId{1, 0}), 12.0);
  EXPECT_DOUBLE_EQ(counts.count_for(LinkId{9, 9}), 0.0);
}

TEST(IngressCounts, TopLinkAndShares) {
  IngressCounts counts;
  counts.add(LinkId{1, 0}, 80);
  counts.add(LinkId{2, 0}, 20);
  EXPECT_EQ(counts.top_link(), (LinkId{1, 0}));
  EXPECT_DOUBLE_EQ(counts.share_of(IngressId(LinkId{1, 0})), 0.8);
  EXPECT_DOUBLE_EQ(counts.share_of(IngressId(LinkId{2, 0})), 0.2);
}

TEST(IngressCounts, BundleAggregation) {
  IngressCounts counts;
  counts.add(LinkId{1, 0}, 40);
  counts.add(LinkId{1, 1}, 45);
  counts.add(LinkId{2, 0}, 15);
  const IngressId bundle(1, {0, 1});
  EXPECT_DOUBLE_EQ(counts.count_for(bundle), 85.0);
  EXPECT_DOUBLE_EQ(counts.share_of(bundle), 0.85);
  EXPECT_DOUBLE_EQ(counts.count_for_router(1), 85.0);
  EXPECT_EQ(counts.routers().size(), 2u);
}

TEST(IngressCounts, RouterInterfacesSortedByCount) {
  IngressCounts counts;
  counts.add(LinkId{1, 0}, 5);
  counts.add(LinkId{1, 1}, 50);
  counts.add(LinkId{2, 0}, 100);
  const auto ifaces = counts.router_interfaces(1);
  ASSERT_EQ(ifaces.size(), 2u);
  EXPECT_EQ(ifaces[0].first, 1);
  EXPECT_EQ(ifaces[1].first, 0);
}

TEST(IngressCounts, ScaleShrinksAndPrunes) {
  IngressCounts counts;
  counts.add(LinkId{1, 0}, 100);
  counts.add(LinkId{2, 0}, 1e-8);
  counts.scale(0.5);
  EXPECT_DOUBLE_EQ(counts.count_for(LinkId{1, 0}), 50.0);
  EXPECT_EQ(counts.distinct_links(), 1u);  // tiny entry pruned
  EXPECT_DOUBLE_EQ(counts.total(), 50.0);
}

TEST(IngressCounts, MergeAccumulates) {
  IngressCounts a, b;
  a.add(LinkId{1, 0}, 10);
  b.add(LinkId{1, 0}, 5);
  b.add(LinkId{2, 0}, 3);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.total(), 18.0);
  EXPECT_DOUBLE_EQ(a.count_for(LinkId{1, 0}), 15.0);
}

TEST(IngressCounts, SortedEntriesDescending) {
  IngressCounts counts;
  counts.add(LinkId{1, 0}, 1);
  counts.add(LinkId{2, 0}, 3);
  counts.add(LinkId{3, 0}, 2);
  const auto sorted = counts.sorted_entries();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_DOUBLE_EQ(sorted[0].second, 3.0);
  EXPECT_DOUBLE_EQ(sorted[1].second, 2.0);
  EXPECT_DOUBLE_EQ(sorted[2].second, 1.0);
}

/// `links` added to an empty IngressCounts in ascending key order, one
/// (link, count) at a time: what rebuilding an aggregate from scratch
/// leaves behind, capacity included.
IngressCounts rebuilt(const std::vector<std::pair<LinkId, double>>& links) {
  IngressCounts out;
  for (const auto& [link, n] : links) out.add(link, n);
  return out;
}

TEST(IngressCounts, SubtractMatchesARebuild) {
  struct Case {
    const char* name;
    std::vector<std::pair<LinkId, double>> added;
    std::vector<std::pair<LinkId, double>> subtracted;
    std::vector<std::pair<LinkId, double>> left;  // ascending by key
  };
  const LinkId a{1, 0}, b{1, 1}, c{2, 0}, d{3, 5}, e{4, 0}, f{9, 9};
  const std::vector<Case> cases = {
      {"last link to zero empties", {{a, 3}}, {{a, 3}}, {}},
      {"partial keeps the link", {{a, 3}, {b, 2}}, {{a, 1}}, {{a, 2}, {b, 2}}},
      {"in steps to zero", {{a, 4}, {b, 1}}, {{a, 1}, {a, 3}}, {{b, 1}}},
      {"spilled back inline", {{a, 1}, {b, 1}, {c, 1}}, {{b, 1}},
       {{a, 1}, {c, 1}}},
      {"8 to 4 slots", {{a, 1}, {b, 2}, {c, 3}, {d, 4}, {e, 5}}, {{c, 3}},
       {{a, 1}, {b, 2}, {d, 4}, {e, 5}}},
      {"no drop keeps 8 slots", {{a, 1}, {b, 2}, {c, 3}, {d, 4}, {e, 5}},
       {{c, 2}}, {{a, 1}, {b, 2}, {c, 1}, {d, 4}, {e, 5}}},
      {"first and last", {{a, 1}, {b, 2}, {c, 3}, {d, 4}, {e, 5}, {f, 6}},
       {{a, 1}, {f, 6}}, {{b, 2}, {c, 3}, {d, 4}, {e, 5}}},
      {"all of many", {{a, 1}, {b, 2}, {c, 3}, {d, 4}, {e, 5}},
       {{e, 5}, {a, 1}, {d, 4}, {b, 2}, {c, 3}}, {}},
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.name);
    IngressCounts counts;
    for (const auto& [link, n] : tc.added) counts.add(link, n);
    for (const auto& [link, n] : tc.subtracted) counts.subtract(link, n);
    const IngressCounts reference = rebuilt(tc.left);
    EXPECT_TRUE(counts.bit_equal(reference));
    EXPECT_EQ(counts.distinct_links(), tc.left.size());
    EXPECT_EQ(counts.entries().capacity(), reference.entries().capacity());
    EXPECT_EQ(counts.memory_bytes(), reference.memory_bytes());
  }
}

TEST(IngressCounts, EmptiedCountsReleaseTheirSpill) {
  IngressCounts counts;
  for (topology::InterfaceIndex i = 0; i < 40; ++i) counts.add(LinkId{7, i}, 2);
  ASSERT_GT(counts.memory_bytes(), 0u);
  for (topology::InterfaceIndex i = 0; i < 40; ++i) {
    counts.subtract(LinkId{7, i}, 2);
  }
  EXPECT_TRUE(counts.empty());
  EXPECT_EQ(counts.total(), 0.0);
  EXPECT_FALSE(std::signbit(counts.total()));
  EXPECT_EQ(counts.memory_bytes(), 0u);
}

/// The add() that predates the binary search: a sorted linear scan with
/// early exit. Its entries are the contract the search must keep.
void linear_scan_add(std::vector<std::pair<LinkId, double>>& entries,
                     LinkId link, double n) {
  auto pos = entries.begin();
  for (; pos != entries.end(); ++pos) {
    if (pos->first.key() >= link.key()) {
      if (pos->first == link) {
        pos->second += n;
        return;
      }
      break;
    }
  }
  entries.insert(pos, {link, n});
}

TEST(IngressCounts, AddOrderGivesTheLinearScansEntries) {
  std::mt19937 rng(7);
  for (const std::size_t n_links : {1u, 2u, 3u, 5u, 8u, 9u, 17u, 64u, 333u}) {
    std::vector<LinkId> links;
    for (std::size_t i = 0; i < n_links; ++i) {
      links.push_back(LinkId{static_cast<topology::RouterId>(rng() % 50),
                             static_cast<topology::InterfaceIndex>(i)});
    }
    std::sort(links.begin(), links.end(),
              [](LinkId x, LinkId y) { return x.key() < y.key(); });
    std::vector<LinkId> descending(links.rbegin(), links.rend());
    std::vector<LinkId> shuffled;  // each link several times, random order
    for (int rep = 0; rep < 3; ++rep) {
      shuffled.insert(shuffled.end(), links.begin(), links.end());
    }
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    for (const auto* order : {&links, &descending, &shuffled}) {
      SCOPED_TRACE(n_links);
      IngressCounts counts;
      std::vector<std::pair<LinkId, double>> reference;
      double weight = 1;
      for (const LinkId link : *order) {
        counts.add(link, weight);
        linear_scan_add(reference, link, weight);
        weight = weight == 5 ? 1 : weight + 1;
      }
      ASSERT_EQ(counts.distinct_links(), reference.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(counts.entries()[i].first, reference[i].first);
        EXPECT_EQ(counts.entries()[i].second, reference[i].second);
        EXPECT_EQ(counts.count_for(reference[i].first), reference[i].second);
      }
      EXPECT_EQ(counts.count_for(LinkId{999, 0}), 0.0);
    }
  }
}

TEST(IngressCounts, ShareOfEmptyIsZero) {
  const IngressCounts counts;
  EXPECT_DOUBLE_EQ(counts.share_of(IngressId(LinkId{1, 0})), 0.0);
}

}  // namespace
}  // namespace ipd::core
