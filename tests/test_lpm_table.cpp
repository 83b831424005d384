#include "core/lpm_table.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/lpm_trie.hpp"
#include "util/rng.hpp"

namespace ipd::core {
namespace {

using net::Family;
using net::IpAddress;
using net::Prefix;
using topology::LinkId;

RangeOutput make_row(const std::string& prefix, LinkId link, bool classified = true) {
  RangeOutput row;
  row.ts = 1;
  row.classified = classified;
  row.range = Prefix::from_string(prefix);
  row.ingress = IngressId(link);
  row.s_ingress = 1.0;
  row.s_ipcount = 100;
  return row;
}

TEST(LpmTable, BuildsFromClassifiedRowsOnly) {
  Snapshot snapshot;
  snapshot.push_back(make_row("10.0.0.0/8", LinkId{1, 0}));
  snapshot.push_back(make_row("20.0.0.0/8", LinkId{2, 0}, /*classified=*/false));
  const auto table = LpmTable::from_snapshot(snapshot);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.lookup(IpAddress::from_string("10.1.1.1")).has_value());
  EXPECT_FALSE(table.lookup(IpAddress::from_string("20.1.1.1")).has_value());
}

TEST(LpmTable, LongestMatchWins) {
  Snapshot snapshot;
  snapshot.push_back(make_row("10.0.0.0/8", LinkId{1, 0}));
  snapshot.push_back(make_row("10.1.0.0/16", LinkId{2, 0}));
  const auto table = LpmTable::from_snapshot(snapshot);
  EXPECT_TRUE(table.lookup(IpAddress::from_string("10.1.2.3"))->matches(LinkId{2, 0}));
  EXPECT_TRUE(table.lookup(IpAddress::from_string("10.2.2.3"))->matches(LinkId{1, 0}));
}

TEST(LpmTable, LookupEntryReturnsPrefix) {
  Snapshot snapshot;
  snapshot.push_back(make_row("10.1.0.0/16", LinkId{2, 0}));
  const auto table = LpmTable::from_snapshot(snapshot);
  const auto hit = table.lookup_entry(IpAddress::from_string("10.1.2.3"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->first.to_string(), "10.1.0.0/16");
  EXPECT_TRUE(hit->second.matches(LinkId{2, 0}));
}

TEST(LpmTable, HandlesBothFamilies) {
  const auto table = LpmTable::from_snapshot(
      {make_row("10.0.0.0/8", LinkId{1, 0}), make_row("2a00::/32", LinkId{2, 0})});
  EXPECT_TRUE(table.lookup(IpAddress::from_string("10.0.0.1")).has_value());
  EXPECT_TRUE(table.lookup(IpAddress::from_string("2a00::1")).has_value());
  EXPECT_FALSE(table.lookup(IpAddress::from_string("2a01::1")).has_value());
  EXPECT_EQ(table.size(), 2u);
}

TEST(LpmTable, BundleIngressSurvivesRoundTrip) {
  Snapshot snapshot;
  auto row = make_row("10.0.0.0/8", LinkId{7, 0});
  row.ingress = IngressId(7, {0, 1});
  snapshot.push_back(row);
  const auto table = LpmTable::from_snapshot(snapshot);
  const auto hit = table.lookup(IpAddress::from_string("10.5.5.5"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->is_bundle());
  EXPECT_TRUE(hit->matches(LinkId{7, 1}));
}

TEST(LpmTable, EmptyTable) {
  const LpmTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(IpAddress::from_string("1.1.1.1")).has_value());
  EXPECT_FALSE(table.lookup(IpAddress::from_string("::1")));
  EXPECT_FALSE(table.lookup_entry(IpAddress::from_string("1.1.1.1")).has_value());
}

TEST(LpmTable, LookupReturnsHandleIntoTheTable) {
  const auto table = LpmTable::from_snapshot({make_row("10.0.0.0/8", LinkId{1, 0})});
  const auto a = table.lookup(IpAddress::from_string("10.0.0.1"));
  const auto b = table.lookup(IpAddress::from_string("10.200.0.1"));
  ASSERT_TRUE(a && b);
  EXPECT_EQ(&*a, &*b);  // one row, no per-lookup copy
  EXPECT_EQ(a->router, 1u);
}

// --- Table-driven edge cases ------------------------------------------------

struct EdgeRow {
  const char* prefix;
  topology::RouterId router;
  bool classified = true;
};

struct EdgeProbe {
  const char* address;
  const char* want_prefix;  // nullptr: unmapped
  topology::RouterId want_router = 0;
};

struct EdgeCase {
  const char* name;
  std::vector<EdgeRow> rows;
  std::size_t want_size;
  std::vector<EdgeProbe> probes;
};

class LpmTableEdge : public ::testing::TestWithParam<EdgeCase> {};

TEST_P(LpmTableEdge, ResolvesEveryProbe) {
  const EdgeCase& c = GetParam();
  Snapshot snapshot;
  for (const EdgeRow& r : c.rows) {
    snapshot.push_back(make_row(r.prefix, LinkId{r.router, 0}, r.classified));
  }
  const auto table = LpmTable::from_snapshot(snapshot);
  EXPECT_EQ(table.size(), c.want_size);
  for (const EdgeProbe& p : c.probes) {
    SCOPED_TRACE(p.address);
    const IpAddress ip = IpAddress::from_string(p.address);
    const auto hit = table.lookup(ip);
    const auto entry = table.lookup_entry(ip);
    if (p.want_prefix == nullptr) {
      EXPECT_FALSE(hit.has_value());
      EXPECT_FALSE(entry.has_value());
      continue;
    }
    ASSERT_TRUE(hit.has_value());
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(hit->router, p.want_router);
    EXPECT_EQ(entry->first, Prefix::from_string(p.want_prefix));
    EXPECT_EQ(entry->second, *hit);
  }
}

const char* const kV6Max = "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff";

INSTANTIATE_TEST_SUITE_P(
    Cases, LpmTableEdge,
    ::testing::Values(
        EdgeCase{"v4_default_route",
                 {{"0.0.0.0/0", 1}},
                 1,
                 {{"0.0.0.0", "0.0.0.0/0", 1},
                  {"128.0.0.0", "0.0.0.0/0", 1},
                  {"255.255.255.255", "0.0.0.0/0", 1},
                  {"::1", nullptr}}},
        EdgeCase{"v6_default_route",
                 {{"::/0", 2}},
                 1,
                 {{"::", "::/0", 2}, {kV6Max, "::/0", 2}, {"1.2.3.4", nullptr}}},
        EdgeCase{"v4_host_route",
                 {{"10.0.0.1/32", 3}},
                 1,
                 {{"10.0.0.1", "10.0.0.1/32", 3},
                  {"10.0.0.0", nullptr},
                  {"10.0.0.2", nullptr}}},
        EdgeCase{"v6_host_route",
                 {{"2001:db8::1/128", 4}},
                 1,
                 {{"2001:db8::1", "2001:db8::1/128", 4},
                  {"2001:db8::", nullptr},
                  {"2001:db8::2", nullptr}}},
        EdgeCase{"v4_top_of_space",
                 {{"255.255.255.255/32", 5},
                  {"255.255.255.0/24", 6},
                  {"255.0.0.0/8", 7}},
                 3,
                 {{"255.255.255.255", "255.255.255.255/32", 5},
                  {"255.255.255.254", "255.255.255.0/24", 6},
                  {"255.255.254.255", "255.0.0.0/8", 7},
                  {"255.0.0.0", "255.0.0.0/8", 7},
                  {"254.255.255.255", nullptr},
                  {"0.0.0.0", nullptr}}},
        EdgeCase{"v6_top_of_space",
                 {{"ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128", 5},
                  {"ffff:ffff:ffff:ffff::/64", 6},
                  {"ffff::/16", 7}},
                 3,
                 {{kV6Max, "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128", 5},
                  {"ffff:ffff:ffff:ffff:ffff:ffff:ffff:fffe",
                   "ffff:ffff:ffff:ffff::/64", 6},
                  {"ffff:ffff:ffff:ffff::", "ffff:ffff:ffff:ffff::/64", 6},
                  {"ffff:ffff:ffff:fffe:ffff:ffff:ffff:ffff", "ffff::/16", 7},
                  {"fffe:ffff:ffff:ffff:ffff:ffff:ffff:ffff", nullptr},
                  {"::", nullptr}}},
        EdgeCase{"nested",
                 {{"10.0.0.0/8", 1}, {"10.1.0.0/16", 2}, {"10.1.2.0/24", 3}},
                 3,
                 {{"10.1.2.3", "10.1.2.0/24", 3},
                  {"10.1.2.255", "10.1.2.0/24", 3},
                  {"10.1.3.0", "10.1.0.0/16", 2},
                  {"10.1.1.255", "10.1.0.0/16", 2},
                  {"10.2.0.0", "10.0.0.0/8", 1},
                  {"10.255.255.255", "10.0.0.0/8", 1},
                  {"11.0.0.0", nullptr},
                  {"9.255.255.255", nullptr}}},
        EdgeCase{"nested_sharing_first_and_last_address",
                 {{"10.0.0.0/8", 1},
                  {"10.0.0.0/16", 2},
                  {"10.255.255.0/24", 3},
                  {"10.255.255.255/32", 4}},
                 4,
                 {{"10.0.0.0", "10.0.0.0/16", 2},
                  {"10.1.0.0", "10.0.0.0/8", 1},
                  {"10.255.255.255", "10.255.255.255/32", 4},
                  {"10.255.255.254", "10.255.255.0/24", 3},
                  {"10.255.254.255", "10.0.0.0/8", 1},
                  {"11.0.0.0", nullptr}}},
        EdgeCase{"nested_v6",
                 {{"2a00::/16", 1}, {"2a00:1::/32", 2}, {"2a00:1:0:5::/64", 3}},
                 3,
                 {{"2a00:1:0:5::9", "2a00:1:0:5::/64", 3},
                  {"2a00:1:0:6::", "2a00:1::/32", 2},
                  {"2a00:1:0:4:ffff:ffff:ffff:ffff", "2a00:1::/32", 2},
                  {"2a00:2::", "2a00::/16", 1},
                  {"2a01::", nullptr}}},
        EdgeCase{"adjacent_distinct_ingress",
                 {{"10.0.0.0/9", 1}, {"10.128.0.0/9", 2}},
                 2,
                 {{"10.127.255.255", "10.0.0.0/9", 1},
                  {"10.128.0.0", "10.128.0.0/9", 2},
                  {"11.0.0.0", nullptr}}},
        EdgeCase{"adjacent_same_ingress_keep_their_prefixes",
                 {{"10.0.0.0/9", 1}, {"10.128.0.0/9", 1}},
                 2,
                 {{"10.127.255.255", "10.0.0.0/9", 1},
                  {"10.128.0.0", "10.128.0.0/9", 1}}},
        EdgeCase{"duplicate_prefix_last_row_wins",
                 {{"10.0.0.0/8", 1}, {"20.0.0.0/8", 9}, {"10.0.0.0/8", 2}},
                 2,
                 {{"10.1.1.1", "10.0.0.0/8", 2}, {"20.1.1.1", "20.0.0.0/8", 9}}},
        EdgeCase{"duplicate_prefix_unclassified_last_row_skipped",
                 {{"10.0.0.0/8", 1}, {"10.0.0.0/8", 2, false}},
                 1,
                 {{"10.1.1.1", "10.0.0.0/8", 1}}},
        EdgeCase{"unclassified_rows_skipped",
                 {{"20.0.0.0/8", 1, false}, {"2a00::/16", 2, false}},
                 0,
                 {{"20.1.1.1", nullptr}, {"2a00::1", nullptr}}},
        EdgeCase{"empty", {}, 0, {{"0.0.0.0", nullptr}, {kV6Max, nullptr}}},
        EdgeCase{"multicast_misses",
                 {{"0.0.0.0/1", 1}, {"128.0.0.0/2", 2}, {"2000::/3", 3}},
                 3,
                 {{"224.0.0.1", nullptr},
                  {"239.255.255.255", nullptr},
                  {"191.255.255.255", "128.0.0.0/2", 2},
                  {"ff02::1", nullptr},
                  {"2001:db8::1", "2000::/3", 3}}},
        EdgeCase{"many_intervals_in_one_slash16",
                 {{"10.1.0.0/16", 1},
                  {"10.1.0.16/28", 2},
                  {"10.1.0.48/28", 3},
                  {"10.1.7.0/24", 4},
                  {"10.1.255.240/28", 5}},
                 5,
                 {{"10.1.0.0", "10.1.0.0/16", 1},
                  {"10.1.0.16", "10.1.0.16/28", 2},
                  {"10.1.0.31", "10.1.0.16/28", 2},
                  {"10.1.0.32", "10.1.0.0/16", 1},
                  {"10.1.0.50", "10.1.0.48/28", 3},
                  {"10.1.7.7", "10.1.7.0/24", 4},
                  {"10.1.255.239", "10.1.0.0/16", 1},
                  {"10.1.255.255", "10.1.255.240/28", 5},
                  {"10.2.0.0", nullptr},
                  {"10.0.255.255", nullptr}}}),
    [](const ::testing::TestParamInfo<EdgeCase>& info) {
      return std::string(info.param.name);
    });

// --- Differential against the LpmTrie oracle --------------------------------

IpAddress random_address(util::Rng& rng, Family family) {
  return family == Family::V4 ? IpAddress::v4(static_cast<std::uint32_t>(rng()))
                              : IpAddress::v6(rng(), rng());
}

/// The address preceding `ip`, wrapping at the bottom of the space.
IpAddress before(const IpAddress& ip) {
  if (ip.is_v4()) return IpAddress::v4(ip.v4_value() - 1);
  return IpAddress::v6(ip.lo() == 0 ? ip.hi() - 1 : ip.hi(), ip.lo() - 1);
}

/// A random prefix length, weighted towards the lengths IPD emits but
/// covering /0 and the full width.
int random_length(util::Rng& rng, Family family) {
  const int width = net::family_width(family);
  if (rng.below(50) == 0) return 0;
  if (rng.below(10) == 0) return width;
  return family == Family::V4 ? 8 + static_cast<int>(rng.below(21))
                              : 16 + static_cast<int>(rng.below(49));
}

/// Prefixes that nest, abut and repeat: a fresh random prefix, a longer
/// prefix inside an earlier one, the sibling of an earlier one, or an
/// exact repeat.
Prefix random_prefix(util::Rng& rng, Family family,
                     const std::vector<Prefix>& earlier) {
  const std::uint64_t dice = earlier.empty() ? 0 : rng.below(8);
  if (dice <= 3) {
    return Prefix(random_address(rng, family), random_length(rng, family));
  }
  const Prefix& base = earlier[rng.below(earlier.size())];
  if (dice <= 5 && base.length() < base.width()) {
    const int len = base.length() + 1 +
                    static_cast<int>(rng.below(static_cast<std::uint64_t>(
                        std::min(base.host_bits(), 24))));
    // Keep base's network bits, randomize the rest.
    const IpAddress r = random_address(rng, family);
    IpAddress a = base.address();
    for (int i = base.length(); i < len; ++i) a = a.with_bit(i, r.bit(i));
    return Prefix(a, len);
  }
  if (dice == 6 && base.length() > 0) return base.sibling();
  return base;
}

struct DiffParam {
  std::uint64_t seed;
  std::size_t rows;
};

class LpmTableDifferential : public ::testing::TestWithParam<DiffParam> {};

TEST_P(LpmTableDifferential, MatchesTrieOracle) {
  const DiffParam param = GetParam();
  util::Rng rng(param.seed);
  Snapshot snapshot;
  net::LpmTrie<IngressId> oracle4(Family::V4);
  net::LpmTrie<IngressId> oracle6(Family::V6);
  std::vector<Prefix> prefixes[2];
  for (std::size_t i = 0; i < param.rows; ++i) {
    const Family family = rng.below(3) == 0 ? Family::V6 : Family::V4;
    auto& earlier = prefixes[family == Family::V4 ? 0 : 1];
    const Prefix prefix = random_prefix(rng, family, earlier);
    earlier.push_back(prefix);
    RangeOutput row;
    row.classified = rng.below(5) != 0;
    row.range = prefix;
    row.ingress = IngressId(LinkId{static_cast<topology::RouterId>(i), 0});
    snapshot.push_back(row);
    // The oracle takes the classified rows in snapshot order, so a later
    // duplicate overwrites an earlier one.
    if (row.classified) {
      (family == Family::V4 ? oracle4 : oracle6).insert(prefix, row.ingress);
    }
  }
  const auto table = LpmTable::from_snapshot(snapshot);
  ASSERT_EQ(table.size(), oracle4.size() + oracle6.size());

  std::size_t queries = 0;
  std::size_t hits = 0;
  const auto check = [&](const IpAddress& ip) {
    const auto& oracle = ip.is_v4() ? oracle4 : oracle6;
    const auto want = oracle.lookup_entry(ip);
    const auto got = table.lookup(ip);
    ++queries;
    ASSERT_EQ(got.has_value(), want.has_value()) << ip.to_string();
    if (!want) return;
    ++hits;
    ASSERT_EQ(*got, *want->second) << ip.to_string();
    const auto entry = table.lookup_entry(ip);
    ASSERT_TRUE(entry.has_value()) << ip.to_string();
    ASSERT_EQ(entry->first, want->first) << ip.to_string();
  };
  // Interval boundaries: each prefix's first and last address and the
  // addresses just outside it.
  for (const auto& family_prefixes : prefixes) {
    for (const Prefix& p : family_prefixes) {
      const IpAddress first = p.address();
      IpAddress last = first;
      for (int i = p.length(); i < p.width(); ++i) last = last.with_bit(i, true);
      for (const IpAddress& ip : {first, last, before(first), last.offset(1)}) {
        check(ip);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  // Random addresses, half uniform and half inside a stored prefix.
  constexpr std::size_t kRandomQueries = 160000;
  for (std::size_t q = 0; q < kRandomQueries; ++q) {
    const Family family = (q & 1) != 0 ? Family::V6 : Family::V4;
    const auto& family_prefixes = prefixes[family == Family::V4 ? 0 : 1];
    IpAddress ip = random_address(rng, family);
    if ((q & 2) != 0 && !family_prefixes.empty()) {
      const Prefix& p = family_prefixes[rng.below(family_prefixes.size())];
      for (int i = 0; i < p.length(); ++i) ip = ip.with_bit(i, p.address().bit(i));
    }
    check(ip);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(hits, queries / 4);  // the prefix-guided half mostly hits
}

// Eight seeds of 160k random queries plus the boundary probes: over 1.3M
// queries across both families.
INSTANTIATE_TEST_SUITE_P(
    Seeds, LpmTableDifferential,
    ::testing::Values(DiffParam{1, 50}, DiffParam{2, 300}, DiffParam{3, 2000},
                      DiffParam{4, 2000}, DiffParam{5, 6000},
                      DiffParam{6, 6000}, DiffParam{7, 12000},
                      DiffParam{8, 20000}),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      return "seed" + std::to_string(info.param.seed) + "_rows" +
             std::to_string(info.param.rows);
    });

// --- Directory buckets and the bounded search --------------------------------
//
// Both families index their intervals with a directory on the top 16 address
// bits and search the intervals of one bucket. These cases aim at the bucket
// edges, at dense buckets, at the IPv6 words and at one-family tables.

/// Last address of `p`.
IpAddress last_address(const Prefix& p) {
  IpAddress last = p.address();
  for (int i = p.length(); i < p.width(); ++i) last = last.with_bit(i, true);
  return last;
}

/// First address of the directory bucket holding `ip`.
IpAddress bucket_first(const IpAddress& ip) {
  return ip.is_v4() ? IpAddress::v4(ip.v4_value() & 0xffff0000u)
                    : IpAddress::v6(ip.hi() & (std::uint64_t{0xffff} << 48), 0);
}

/// Last address of the directory bucket holding `ip`.
IpAddress bucket_last(const IpAddress& ip) {
  return ip.is_v4() ? IpAddress::v4(ip.v4_value() | 0xffffu)
                    : IpAddress::v6(ip.hi() | ((std::uint64_t{1} << 48) - 1),
                                    ~std::uint64_t{0});
}

RangeOutput classified_row(const Prefix& prefix, std::size_t i) {
  RangeOutput row;
  row.classified = true;
  row.range = prefix;
  row.ingress = IngressId(LinkId{static_cast<topology::RouterId>(i), 0});
  return row;
}

/// Build the table from `snapshot` and check every probe against the
/// LpmTrie oracle over the same classified rows. Besides `probes`, it
/// probes each prefix's first and last address and the addresses just
/// outside them, and both sides of both edges of the directory bucket each
/// of those lies in (every bucket with more than one interval holds an
/// interval start, so this covers the edges of all of them). Returns the
/// number of probes that hit.
std::size_t expect_matches_oracle(const Snapshot& snapshot,
                                  std::vector<IpAddress> probes) {
  net::LpmTrie<IngressId> oracle4(Family::V4);
  net::LpmTrie<IngressId> oracle6(Family::V6);
  for (const RangeOutput& row : snapshot) {
    if (!row.classified) continue;
    (row.range.family() == Family::V4 ? oracle4 : oracle6)
        .insert(row.range, row.ingress);
    const IpAddress first = row.range.address();
    const IpAddress last = last_address(row.range);
    for (const IpAddress& edge : {first, last, before(first), last.offset(1)}) {
      probes.push_back(edge);
      const IpAddress lo = bucket_first(edge);
      const IpAddress hi = bucket_last(edge);
      for (const IpAddress& ip : {lo, before(lo), hi, hi.offset(1)}) {
        probes.push_back(ip);
      }
    }
  }
  const auto table = LpmTable::from_snapshot(snapshot);
  EXPECT_EQ(table.size(), oracle4.size() + oracle6.size());
  std::size_t hits = 0;
  for (const IpAddress& ip : probes) {
    const auto want = (ip.is_v4() ? oracle4 : oracle6).lookup_entry(ip);
    const auto got = table.lookup_entry(ip);
    if (got.has_value() != want.has_value() ||
        (want && (got->first != want->first || got->second != *want->second))) {
      ADD_FAILURE() << ip.to_string() << ": table says "
                    << (got ? got->first.to_string() : "unmapped")
                    << ", oracle says "
                    << (want ? want->first.to_string() : "unmapped");
      return hits;
    }
    hits += want.has_value();
  }
  return hits;
}

/// `n` random addresses of `family`, half of them inside one of `prefixes`.
std::vector<IpAddress> random_probes(util::Rng& rng, Family family,
                                     const std::vector<Prefix>& prefixes,
                                     std::size_t n) {
  std::vector<IpAddress> out;
  for (std::size_t q = 0; q < n; ++q) {
    IpAddress ip = random_address(rng, family);
    if ((q & 1) != 0 && !prefixes.empty()) {
      const Prefix& p = prefixes[rng.below(prefixes.size())];
      if (p.family() == family) {
        for (int i = 0; i < p.length(); ++i) ip = ip.with_bit(i, p.address().bit(i));
      }
    }
    out.push_back(ip);
  }
  return out;
}

class LpmTableIndex : public ::testing::TestWithParam<std::uint64_t> {};

// Every prefix length of both families, /0 through the full width, each as
// a fresh prefix and nested at every depth under earlier ones.
TEST_P(LpmTableIndex, EveryPrefixLengthMatchesTrieOracle) {
  util::Rng rng(GetParam());
  Snapshot snapshot;
  std::vector<Prefix> prefixes;
  for (const Family family : {Family::V4, Family::V6}) {
    const int width = net::family_width(family);
    for (int round = 0; round < 4; ++round) {
      for (int len = 0; len <= width; ++len) {
        prefixes.emplace_back(random_address(rng, family), len);
      }
    }
    // Nested: a random longer prefix inside an earlier one of the family.
    const std::size_t fresh = prefixes.size();
    for (std::size_t i = 0; i < fresh; ++i) {
      const Prefix& base = prefixes[rng.below(fresh)];
      if (base.family() != family || base.length() == width) continue;
      const int len = base.length() + 1 +
                      static_cast<int>(rng.below(
                          static_cast<std::uint64_t>(width - base.length())));
      const IpAddress r = random_address(rng, family);
      IpAddress a = base.address();
      for (int b = base.length(); b < len; ++b) a = a.with_bit(b, r.bit(b));
      prefixes.emplace_back(a, len);
    }
  }
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    snapshot.push_back(classified_row(prefixes[i], i));
  }
  std::vector<IpAddress> probes = random_probes(rng, Family::V4, prefixes, 20000);
  const auto probes6 = random_probes(rng, Family::V6, prefixes, 20000);
  probes.insert(probes.end(), probes6.begin(), probes6.end());
  EXPECT_GT(expect_matches_oracle(snapshot, probes), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmTableIndex, ::testing::Values(11, 12, 13, 14),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// One IPv4 /16 and one IPv6 /16 (one directory bucket each) that hold over
// 600 intervals: 300 spaced prefixes, each opening an interval and closing
// one, under a covering prefix, with nested ones inside some of them. The
// whole IPv4 /16 is probed.
TEST(LpmTableIndexBuckets, DenseBucketsMatchTrieOracle) {
  util::Rng rng(21);
  Snapshot snapshot;
  std::vector<Prefix> prefixes;
  prefixes.push_back(Prefix::from_string("10.1.0.0/16"));
  prefixes.push_back(Prefix::from_string("2a00::/16"));
  for (std::uint32_t k = 0; k < 300; ++k) {
    const std::uint32_t v4 = (10u << 24) | (1u << 16) | (k * 128);
    prefixes.emplace_back(IpAddress::v4(v4), 27);
    if (k % 3 == 0) prefixes.emplace_back(IpAddress::v4(v4 + 8), 30);
    const std::uint64_t hi = (std::uint64_t{0x2a00} << 48) | (std::uint64_t{k} << 32);
    prefixes.emplace_back(IpAddress::v6(hi, 0), 48);
    if (k % 3 == 0) prefixes.emplace_back(IpAddress::v6(hi | 0x100, rng()), 100);
  }
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    snapshot.push_back(classified_row(prefixes[i], i));
  }
  std::vector<IpAddress> probes;
  for (std::uint32_t low = 0; low < (1u << 16); ++low) {
    probes.push_back(IpAddress::v4((10u << 24) | (1u << 16) | low));
  }
  const auto probes6 = random_probes(rng, Family::V6, prefixes, 40000);
  probes.insert(probes.end(), probes6.begin(), probes6.end());
  EXPECT_GT(expect_matches_oracle(snapshot, probes), 65536u);
}

// Intervals in the first and the last directory bucket of each family,
// including the last address of the space.
TEST(LpmTableIndexBuckets, FirstAndLastBucketsMatchTrieOracle) {
  Snapshot snapshot;
  std::size_t i = 0;
  for (const char* p :
       {"0.0.0.0/32", "0.0.0.64/26", "0.0.128.0/17", "255.255.0.0/17",
        "255.255.255.0/24", "255.255.255.255/32", "255.255.255.128/26", "::/128",
        "::1:0:0:0/64", "0:8000::/17", "ffff::/17", "ffff:ffff:ffff:ffff::/64",
        "ffff:ffff:ffff:ffff:ffff:ffff:ffff:fffe/127",
        "ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff/128"}) {
    snapshot.push_back(classified_row(Prefix::from_string(p), i++));
  }
  EXPECT_GT(expect_matches_oracle(snapshot, {}), 0u);
}

// IPv6 intervals that share a hi word and differ only in the lo word, so
// the search must compare the low 64 bits.
TEST(LpmTableIndexBuckets, V6StartsBelowTheHiWordMatchTrieOracle) {
  util::Rng rng(31);
  Snapshot snapshot;
  std::vector<Prefix> prefixes;
  const std::uint64_t hi = 0x2a00000100020003;
  prefixes.emplace_back(IpAddress::v6(hi, 0), 64);
  for (int k = 0; k < 200; ++k) {
    const int len = 65 + static_cast<int>(rng.below(64));
    prefixes.emplace_back(IpAddress::v6(hi, rng()), len);
  }
  // And across a hi-word carry: the last addresses of one hi word and the
  // first of the next.
  prefixes.emplace_back(IpAddress::v6(hi + 1, ~std::uint64_t{0} << 4), 124);
  prefixes.emplace_back(IpAddress::v6(hi + 2, 0), 126);
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    snapshot.push_back(classified_row(prefixes[i], i));
  }
  std::vector<IpAddress> probes = random_probes(rng, Family::V6, prefixes, 40000);
  for (int k = 0; k < 10000; ++k) probes.push_back(IpAddress::v6(hi, rng()));
  EXPECT_GT(expect_matches_oracle(snapshot, probes), 10000u);
}

// A table with one family only: the other family's lookups all miss.
TEST(LpmTableIndexBuckets, OneFamilyTablesMatchTrieOracle) {
  for (const Family family : {Family::V4, Family::V6}) {
    SCOPED_TRACE(family == Family::V4 ? "v4 only" : "v6 only");
    util::Rng rng(family == Family::V4 ? 41 : 42);
    Snapshot snapshot;
    std::vector<Prefix> prefixes;
    for (std::size_t i = 0; i < 500; ++i) {
      prefixes.push_back(random_prefix(rng, family, prefixes));
      snapshot.push_back(classified_row(prefixes.back(), i));
    }
    std::vector<IpAddress> probes = random_probes(rng, Family::V4, prefixes, 20000);
    const auto probes6 = random_probes(rng, Family::V6, prefixes, 20000);
    probes.insert(probes.end(), probes6.begin(), probes6.end());
    EXPECT_GT(expect_matches_oracle(snapshot, probes), 0u);
    const auto table = LpmTable::from_snapshot(snapshot);
    const Family other = family == Family::V4 ? Family::V6 : Family::V4;
    for (int k = 0; k < 1000; ++k) {
      ASSERT_FALSE(table.lookup(random_address(rng, other)).has_value());
    }
  }
}

}  // namespace
}  // namespace ipd::core
