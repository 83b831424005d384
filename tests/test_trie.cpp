#include "core/trie.hpp"

#include <algorithm>
#include <iterator>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "trie_probes.hpp"

namespace ipd::core {
namespace {

using net::Family;
using net::IpAddress;
using net::Prefix;
using topology::LinkId;

/// The locate directory's bytes from the structure alone: one NodeIndex
/// per top-bits block while the root is internal, nothing while it is a
/// leaf. Counted apart from the arena, not inside arena_bytes().
std::size_t expected_directory_bytes(const IpdTrie& trie) {
  return trie.root().is_leaf()
             ? 0
             : IpdTrie::kDirectoryEntries * sizeof(NodeIndex);
}

TEST(IpdTrie, StartsAsSingleMonitoringRoot) {
  IpdTrie trie(Family::V4);
  EXPECT_EQ(trie.leaf_count(), 1u);
  EXPECT_EQ(trie.node_count(), 1u);
  EXPECT_EQ(trie.root().state(), RangeNode::State::Monitoring);
  EXPECT_EQ(trie.root().prefix(), Prefix::root(Family::V4));
}

TEST(IpdTrie, LocateFindsRootInitially) {
  IpdTrie trie(Family::V4);
  auto& leaf = trie.locate(IpAddress::from_string("1.2.3.4"));
  EXPECT_EQ(&leaf, &trie.root());
}

TEST(RangeNode, AddSampleTracksIpsAndCounts) {
  IpdTrie trie(Family::V4);
  auto& root = trie.root();
  const auto ip = IpAddress::from_string("10.0.0.0");
  root.add_sample(100, ip, LinkId{1, 0});
  root.add_sample(110, ip, LinkId{1, 0});
  root.add_sample(120, ip, LinkId{2, 0});

  EXPECT_DOUBLE_EQ(root.counts().total(), 3.0);
  EXPECT_EQ(root.ips().size(), 1u);
  const auto& entry = root.ips().begin()->second;
  EXPECT_EQ(entry.total, 3u);
  EXPECT_EQ(entry.last_seen, 120);
  EXPECT_EQ(root.last_update(), 120);
}

TEST(RangeNode, ExpireRemovesStaleIpsAndRebuildsCounts) {
  IpdTrie trie(Family::V4);
  auto& root = trie.root();
  root.add_sample(100, IpAddress::from_string("10.0.0.0"), LinkId{1, 0});
  root.add_sample(300, IpAddress::from_string("10.0.1.0"), LinkId{2, 0});
  root.add_sample(300, IpAddress::from_string("10.0.1.0"), LinkId{2, 0});

  root.expire_before(200);
  EXPECT_EQ(root.ips().size(), 1u);
  EXPECT_DOUBLE_EQ(root.counts().total(), 2.0);
  EXPECT_DOUBLE_EQ(root.counts().count_for(LinkId{1, 0}), 0.0);
}

TEST(RangeNode, ClassifyDropsDetailKeepsAggregates) {
  IpdTrie trie(Family::V4);
  auto& root = trie.root();
  for (int i = 0; i < 10; ++i) {
    root.add_sample(100 + i, IpAddress::v4(static_cast<std::uint32_t>(i << 8)),
                    LinkId{1, 0});
  }
  root.classify(IngressId(LinkId{1, 0}), 200);
  EXPECT_EQ(root.state(), RangeNode::State::Classified);
  EXPECT_TRUE(root.ips().empty());
  EXPECT_DOUBLE_EQ(root.counts().total(), 10.0);
  EXPECT_EQ(root.classified_at(), 200);
  EXPECT_TRUE(root.ingress().matches(LinkId{1, 0}));
}

TEST(RangeNode, ResetToMonitoringClearsEverything) {
  IpdTrie trie(Family::V4);
  auto& root = trie.root();
  root.add_sample(100, IpAddress::v4(1), LinkId{1, 0});
  root.classify(IngressId(LinkId{1, 0}), 100);
  root.reset_to_monitoring();
  EXPECT_EQ(root.state(), RangeNode::State::Monitoring);
  EXPECT_FALSE(root.ingress().valid());
  EXPECT_TRUE(root.counts().empty());
}

TEST(IpdTrie, SplitRedistributesByBit) {
  IpdTrie trie(Family::V4);
  auto& root = trie.root();
  // 0.x -> low half; 128.x -> high half.
  root.add_sample(100, IpAddress::from_string("1.0.0.0"), LinkId{1, 0});
  root.add_sample(100, IpAddress::from_string("200.0.0.0"), LinkId{2, 0});
  root.add_sample(105, IpAddress::from_string("201.0.0.0"), LinkId{2, 0});

  ASSERT_TRUE(trie.split(root));
  EXPECT_EQ(root.state(), RangeNode::State::Internal);
  EXPECT_EQ(trie.leaf_count(), 2u);
  EXPECT_EQ(trie.node_count(), 3u);

  const auto& low = *trie.child(root, 0);
  const auto& high = *trie.child(root, 1);
  EXPECT_EQ(low.prefix().to_string(), "0.0.0.0/1");
  EXPECT_EQ(high.prefix().to_string(), "128.0.0.0/1");
  EXPECT_EQ(low.ips().size(), 1u);
  EXPECT_EQ(high.ips().size(), 2u);
  EXPECT_DOUBLE_EQ(low.counts().total(), 1.0);
  EXPECT_DOUBLE_EQ(high.counts().total(), 2.0);
  EXPECT_EQ(high.last_update(), 105);
}

TEST(IpdTrie, LocateDescendsAfterSplit) {
  IpdTrie trie(Family::V4);
  trie.root().add_sample(1, IpAddress::from_string("1.0.0.0"), LinkId{1, 0});
  ASSERT_TRUE(trie.split(trie.root()));
  auto& leaf = trie.locate(IpAddress::from_string("200.0.0.0"));
  EXPECT_EQ(leaf.prefix().to_string(), "128.0.0.0/1");
}

TEST(IpdTrie, SplitRejectsNonMonitoring) {
  IpdTrie trie(Family::V4);
  trie.root().classify(IngressId(LinkId{1, 0}), 10);
  EXPECT_FALSE(trie.split(trie.root()));
}

TEST(IpdTrie, SplitRejectsHostRoutes) {
  IpdTrie trie(Family::V4);
  // Descend to /32 by splitting along 0.0.0.0.
  RangeNode* node = &trie.root();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(trie.split(*node));
    node = trie.child(*node, 0);
  }
  EXPECT_FALSE(trie.split(*node));
  EXPECT_EQ(node->prefix().length(), 32);
}

TEST(IpdTrie, JoinMergesSameIngressSiblings) {
  IpdTrie trie(Family::V4);
  auto& root = trie.root();
  ASSERT_TRUE(trie.split(root));
  auto& low = *trie.child(root, 0);
  auto& high = *trie.child(root, 1);
  low.add_sample(50, IpAddress::from_string("1.0.0.0"), LinkId{1, 0});
  high.add_sample(60, IpAddress::from_string("200.0.0.0"), LinkId{1, 0});
  low.classify(IngressId(LinkId{1, 0}), 100);
  high.classify(IngressId(LinkId{1, 0}), 110);

  ASSERT_TRUE(trie.join_children(root));
  EXPECT_EQ(root.state(), RangeNode::State::Classified);
  EXPECT_EQ(trie.leaf_count(), 1u);
  EXPECT_DOUBLE_EQ(root.counts().total(), 2.0);
  EXPECT_EQ(root.last_update(), 60);
  EXPECT_EQ(root.classified_at(), 100);  // earliest child classification
}

TEST(IpdTrie, JoinRejectsDifferentIngress) {
  IpdTrie trie(Family::V4);
  auto& root = trie.root();
  ASSERT_TRUE(trie.split(root));
  trie.child(root, 0)->classify(IngressId(LinkId{1, 0}), 100);
  trie.child(root, 1)->classify(IngressId(LinkId{2, 0}), 100);
  EXPECT_FALSE(trie.join_children(root));
  EXPECT_EQ(root.state(), RangeNode::State::Internal);
}

TEST(IpdTrie, JoinRejectsMonitoringChildren) {
  IpdTrie trie(Family::V4);
  ASSERT_TRUE(trie.split(trie.root()));
  EXPECT_FALSE(trie.join_children(trie.root()));
}

TEST(IpdTrie, CompactFoldsEmptyMonitoringSiblings) {
  IpdTrie trie(Family::V4);
  ASSERT_TRUE(trie.split(trie.root()));
  EXPECT_TRUE(trie.compact_children(trie.root()));
  EXPECT_EQ(trie.leaf_count(), 1u);
  EXPECT_EQ(trie.root().state(), RangeNode::State::Monitoring);
}

TEST(IpdTrie, CompactRejectsNonEmptyChildren) {
  IpdTrie trie(Family::V4);
  ASSERT_TRUE(trie.split(trie.root()));
  trie.child(trie.root(), 0)->add_sample(1, IpAddress::v4(0), LinkId{1, 0});
  EXPECT_FALSE(trie.compact_children(trie.root()));
}

TEST(IpdTrie, ForEachLeafVisitsPartitionInAddressOrder) {
  IpdTrie trie(Family::V4);
  ASSERT_TRUE(trie.split(trie.root()));
  ASSERT_TRUE(trie.split(*trie.child(trie.root(), 0)));
  std::vector<std::string> seen;
  trie.for_each_leaf([&seen](RangeNode& leaf) {
    seen.push_back(leaf.prefix().to_string());
  });
  const std::vector<std::string> expected{"0.0.0.0/2", "64.0.0.0/2",
                                          "128.0.0.0/1"};
  EXPECT_EQ(seen, expected);
}

TEST(IpdTrie, PostOrderVisitsChildrenBeforeParents) {
  IpdTrie trie(Family::V4);
  ASSERT_TRUE(trie.split(trie.root()));
  std::vector<std::string> order;
  trie.post_order([&order](RangeNode& node) {
    order.push_back(node.prefix().to_string());
  });
  const std::vector<std::string> expected{"0.0.0.0/1", "128.0.0.0/1",
                                          "0.0.0.0/0"};
  EXPECT_EQ(order, expected);
}

TEST(IpdTrie, MemoryEstimateGrowsWithState) {
  IpdTrie trie(Family::V4);
  const auto empty_bytes = trie.memory_bytes();
  for (int i = 0; i < 1000; ++i) {
    trie.root().add_sample(1, IpAddress::v4(static_cast<std::uint32_t>(i << 4)),
                           LinkId{1, 0});
  }
  EXPECT_GT(trie.memory_bytes(), empty_bytes + 1000 * sizeof(IpEntry));
}

TEST(IpdTrie, MemoryIsExactSumOfArenaAndNodeHeap) {
  IpdTrie trie(Family::V4);
  for (int i = 0; i < 5000; ++i) {
    trie.root().add_sample(
        1, IpAddress::v4(static_cast<std::uint32_t>(i * 2654435761u)),
        LinkId{static_cast<topology::RouterId>(i % 7), 0});
  }
  ASSERT_TRUE(trie.split(trie.root()));
  // Cross-check the one-call accounting against an independent walk:
  // arena footprint, the locate directory, and every node's owned heap,
  // nothing else.
  std::size_t summed = trie.arena_bytes() + expected_directory_bytes(trie);
  trie.post_order([&summed](RangeNode& node) {
    summed += node.memory_bytes();
  });
  EXPECT_EQ(trie.memory_bytes(), summed);
  EXPECT_GT(trie.memory_bytes(), trie.arena_bytes());
}

TEST(IpdTrie, MemoryDropsAfterExpiry) {
  // Regression for the old `clear(); rehash(0)` non-shrink: once per-IP
  // detail expires and the table compacts, the detail bytes (everything
  // beyond the fixed arena block) must come back.
  IpdTrie trie(Family::V4);
  const auto detail = [&trie] {
    return trie.memory_bytes() - trie.arena_bytes();
  };
  ASSERT_EQ(detail(), 0u);
  for (int i = 0; i < 10000; ++i) {
    trie.root().add_sample(
        100, IpAddress::v4(static_cast<std::uint32_t>(i << 8)), LinkId{1, 0});
  }
  const auto loaded = detail();
  ASSERT_GT(loaded, 10000 * sizeof(IpEntry));
  trie.root().expire_before(200);
  EXPECT_TRUE(trie.root().ips().empty());
  EXPECT_LT(detail(), loaded / 100);
}

TEST(IpdTrie, MemoryDropsAfterClassify) {
  IpdTrie trie(Family::V4);
  const auto detail = [&trie] {
    return trie.memory_bytes() - trie.arena_bytes();
  };
  for (int i = 0; i < 10000; ++i) {
    trie.root().add_sample(
        100, IpAddress::v4(static_cast<std::uint32_t>(i << 8)), LinkId{1, 0});
  }
  const auto loaded = detail();
  trie.root().classify(IngressId(LinkId{1, 0}), 200);
  // Detail state is gone; aggregates survive.
  EXPECT_LT(detail(), loaded / 100);
  EXPECT_DOUBLE_EQ(trie.root().counts().total(), 10000.0);
}

TEST(IpdTrie, PoolReusesFreedSlotsUnderChurn) {
  // Split/compact steady state must not grow the arena: freed child slots
  // are recycled through the free list.
  IpdTrie trie(Family::V4);
  ASSERT_TRUE(trie.split(trie.root()));
  const auto high = trie.pool_high_water();
  const auto bytes = trie.arena_bytes();
  EXPECT_TRUE(trie.compact_children(trie.root()));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(trie.split(trie.root()));
    ASSERT_TRUE(trie.compact_children(trie.root()));
  }
  EXPECT_EQ(trie.pool_high_water(), high);
  EXPECT_EQ(trie.arena_bytes(), bytes);
  EXPECT_EQ(trie.node_count(), 1u);
}

TEST(IpdTrie, PoolReusesSlotsAcrossJoin) {
  IpdTrie trie(Family::V4);
  ASSERT_TRUE(trie.split(trie.root()));
  trie.child(trie.root(), 0)->classify(IngressId(LinkId{1, 0}), 100);
  trie.child(trie.root(), 1)->classify(IngressId(LinkId{1, 0}), 100);
  const auto high = trie.pool_high_water();
  ASSERT_TRUE(trie.join_children(trie.root()));
  trie.root().reset_to_monitoring();
  // The next split must reuse the two just-freed slots.
  ASSERT_TRUE(trie.split(trie.root()));
  EXPECT_EQ(trie.pool_high_water(), high);
}

TEST(IpdTrie, RandomChurnKeepsPoolAndAccountingConsistent) {
  // Model-based fuzz over the full structural op set: ingest, split,
  // classify, expire, join, compact, reset. Invariants checked each round:
  // the walked node/leaf counts match the counters, and memory_bytes()
  // equals the independently summed arena + per-node heap.
  std::mt19937 rng(0xabcdu);
  IpdTrie trie(Family::V4);
  for (int round = 0; round < 300; ++round) {
    // Gather the current nodes.
    std::vector<RangeNode*> leaves;
    std::vector<RangeNode*> internals;
    trie.post_order([&](RangeNode& node) {
      (node.is_leaf() ? leaves : internals).push_back(&node);
    });

    const int op = static_cast<int>(rng() % 100);
    RangeNode& leaf = *leaves[rng() % leaves.size()];
    if (op < 40) {
      for (int i = 0; i < 50; ++i) {
        // Samples under the leaf's own prefix so they stay put on split.
        const std::uint32_t within = rng();
        const int len = leaf.prefix().length();
        const std::uint32_t base = leaf.prefix().address().v4_value();
        const std::uint32_t mask =
            len == 0 ? 0u : ~0u << (32 - len);
        leaf.add_sample(round, IpAddress::v4(base | (within & ~mask)),
                        LinkId{static_cast<topology::RouterId>(rng() % 3), 0});
      }
    } else if (op < 60) {
      trie.split(leaf);
    } else if (op < 70) {
      if (leaf.state() == RangeNode::State::Monitoring &&
          !leaf.counts().empty()) {
        leaf.classify(IngressId(leaf.counts().top_link()), round);
      }
    } else if (op < 80) {
      if (leaf.state() == RangeNode::State::Monitoring) {
        leaf.expire_before(round - static_cast<int>(rng() % 20));
      }
    } else if (op < 90 && !internals.empty()) {
      RangeNode& parent = *internals[rng() % internals.size()];
      if (!trie.join_children(parent)) trie.compact_children(parent);
    } else if (op < 95) {
      leaf.reset_to_monitoring();
    }

    // Invariants.
    std::size_t walked_nodes = 0;
    std::size_t walked_leaves = 0;
    std::size_t summed = trie.arena_bytes() + expected_directory_bytes(trie);
    trie.post_order([&](RangeNode& node) {
      ++walked_nodes;
      if (node.is_leaf()) ++walked_leaves;
      summed += node.memory_bytes();
    });
    ASSERT_EQ(trie.node_count(), walked_nodes);
    ASSERT_EQ(trie.leaf_count(), walked_leaves);
    ASSERT_EQ(trie.memory_bytes(), summed);
    ASSERT_LE(trie.node_count(), trie.pool_high_water());
  }
}

TEST(RangeNode, DecrementalExpiryMatchesARebuild) {
  // Randomized churn against the reference: samples over pools of 1 to
  // 500 links, expiry at random cutoffs (one leaf, or all of them as a
  // cycle does) and random splits. After every step each Monitoring
  // leaf's aggregate must equal a rebuild from its per-IP detail (links,
  // counts and total bit for bit, capacity too), and the census must
  // agree with an independent walk.
  constexpr std::size_t kPools[] = {1, 2, 3, 8, 40, 500};
  std::mt19937 rng(0x5eedu);
  IpdTrie trie(Family::V4);
  std::size_t max_links = 0;
  std::size_t expired = 0;
  for (int round = 0; round < 400; ++round) {
    std::vector<RangeNode*> leaves;
    trie.for_each_leaf([&](RangeNode& node) { leaves.push_back(&node); });
    RangeNode& leaf = *leaves[rng() % leaves.size()];
    const int op = static_cast<int>(rng() % 10);
    if (op < 5) {
      const std::size_t pool = kPools[rng() % std::size(kPools)];
      const int len = leaf.prefix().length();
      const std::uint32_t base = leaf.prefix().address().v4_value();
      const std::uint32_t mask = len == 0 ? 0u : ~0u << (32 - len);
      const std::size_t samples = std::max<std::size_t>(300, 2 * pool);
      for (std::size_t i = 0; i < samples; ++i) {
        // A few hundred spread-out sources, so entries collect several
        // samples and several links before they expire.
        const std::uint32_t within =
            static_cast<std::uint32_t>(rng() % 300) * 2654435761u;
        const auto l = static_cast<std::uint32_t>(rng() % pool);
        leaf.add_sample(round - static_cast<int>(rng() % 8),
                        IpAddress::v4(base | (within & ~mask)),
                        LinkId{static_cast<topology::RouterId>(l / 8),
                               static_cast<topology::InterfaceIndex>(l % 8)},
                        1 + rng() % 5);
      }
      max_links = std::max(max_links, leaf.counts().distinct_links());
    } else if (op < 7) {
      const std::size_t before = leaf.ips().size();
      leaf.expire_before(round - static_cast<int>(rng() % 10));
      expired += before - leaf.ips().size();
    } else if (op < 9) {
      trie.split(leaf);
    } else {
      const int cutoff = round - static_cast<int>(rng() % 10);
      for (RangeNode* node : leaves) {
        const std::size_t before = node->ips().size();
        node->expire_before(cutoff);
        expired += before - node->ips().size();
      }
    }

    TrieCensus walked;
    walked.memory_bytes = trie.arena_bytes() + expected_directory_bytes(trie);
    trie.post_order([&](RangeNode& node) {
      walked.memory_bytes += node.memory_bytes();
      if (!node.is_leaf()) return;
      ++walked.monitoring;
      walked.tracked_ips += node.ips().size();
      const IngressCounts reference = node.rebuilt_counts();
      ASSERT_TRUE(node.counts().bit_equal(reference))
          << "round " << round << " leaf " << node.prefix().to_string();
      ASSERT_EQ(node.counts().entries().capacity(),
                reference.entries().capacity())
          << "round " << round;
      ASSERT_EQ(node.counts().memory_bytes(), reference.memory_bytes());
    });
    const TrieCensus census = trie.census();
    ASSERT_EQ(census.monitoring, walked.monitoring);
    ASSERT_EQ(census.classified, 0u);
    ASSERT_EQ(census.tracked_ips, walked.tracked_ips);
    ASSERT_EQ(census.memory_bytes, walked.memory_bytes);
    ASSERT_EQ(trie.memory_bytes(), walked.memory_bytes);
  }
  // Both ends of the link range were exercised, and expiry did real work.
  EXPECT_GT(max_links, 300u);
  EXPECT_GT(expired, 1000u);
}

TEST(IpdTrie, CensusCountsLeavesByState) {
  IpdTrie trie(Family::V4);
  ASSERT_TRUE(trie.split(trie.root()));
  RangeNode& low = *trie.child(trie.root(), 0);
  RangeNode& high = *trie.child(trie.root(), 1);
  low.add_sample(1, IpAddress::from_string("10.0.0.0"), LinkId{1, 0});
  low.add_sample(1, IpAddress::from_string("10.0.1.0"), LinkId{1, 0});
  high.add_sample(1, IpAddress::from_string("200.0.0.0"), LinkId{2, 0});
  high.classify(IngressId(LinkId{2, 0}), 1);
  const TrieCensus census = trie.census();
  EXPECT_EQ(census.classified, 1u);
  EXPECT_EQ(census.monitoring, 1u);
  EXPECT_EQ(census.tracked_ips, 2u);
  EXPECT_EQ(census.memory_bytes,
            trie.arena_bytes() + expected_directory_bytes(trie) +
                low.memory_bytes() + high.memory_bytes() +
                trie.root().memory_bytes());
}

TEST(IpdTrie, V6Works) {
  IpdTrie trie(Family::V6);
  auto& leaf = trie.locate(IpAddress::from_string("2001:db8::1"));
  leaf.add_sample(1, IpAddress::from_string("2001:db8::"), LinkId{1, 0});
  ASSERT_TRUE(trie.split(trie.root()));
  auto& after = trie.locate(IpAddress::from_string("2001:db8::1"));
  EXPECT_EQ(after.prefix().to_string(), "::/1");
  EXPECT_EQ(after.ips().size(), 1u);
}

// ---------------------------------------------------------------------------
// Descents through the locate directory against a root descent.

/// Reference: follow child edges bit by bit from the root, using nothing
/// the directory or the block-0 offsets hold.
const RangeNode& reference_locate(const IpdTrie& trie, const IpAddress& ip) {
  const RangeNode* node = &trie.root();
  while (!node->is_leaf()) {
    node = trie.child(*node, ip.bit(node->prefix().length()));
  }
  return *node;
}

/// locate() and locate_many() (whole list and short prefixes of it) land
/// on the reference leaf for every probe; locate_many reads each address
/// once, in order.
void expect_descents_agree(IpdTrie& trie, const std::vector<IpAddress>& probes,
                           int round) {
  for (const std::size_t n :
       {probes.size(), std::size_t{1}, IpdTrie::kLocateWalks + 1}) {
    const std::size_t count = std::min(n, probes.size());
    std::vector<const RangeNode*> many(count, nullptr);
    std::size_t reads = 0;
    trie.locate_many(
        count,
        [&](std::size_t i) -> const IpAddress& {
          EXPECT_EQ(i, reads++);
          return probes[i];
        },
        [&](std::size_t i, RangeNode& leaf) {
          EXPECT_EQ(many[i], nullptr) << "emitted twice";
          many[i] = &leaf;
        });
    ASSERT_EQ(reads, count);
    for (std::size_t i = 0; i < count; ++i) {
      const RangeNode& expected = reference_locate(trie, probes[i]);
      ASSERT_EQ(&trie.locate(probes[i]), &expected)
          << "round " << round << " locate " << probes[i].to_string();
      ASSERT_EQ(many[i], &expected)
          << "round " << round << " locate_many " << probes[i].to_string();
    }
  }
}

IpAddress random_address(Family family, std::mt19937_64& rng) {
  return family == Family::V4
             ? IpAddress::v4(static_cast<std::uint32_t>(rng()))
             : IpAddress::v6(rng(), rng());
}

/// Random split/join/compact churn. Splits mostly follow a few hot
/// addresses (0, all-ones, one random) so leaves reach far below the
/// directory depth — past /64 on IPv6 — while random splits and joins
/// keep leaves above and at it. After every operation, the edges of the
/// touched node's blocks plus a fixed probe set must descend alike.
void churn_descents(Family family, std::uint64_t seed, int rounds) {
  constexpr int kBits = IpdTrie::kDirectoryBits;
  std::mt19937_64 rng(seed);
  IpdTrie trie(family);
  const IpAddress zero =
      family == Family::V4 ? IpAddress::v4(0) : IpAddress::v6(0, 0);
  const IpAddress ones = family == Family::V4 ? IpAddress::v4(~0u)
                                              : IpAddress::v6(~0ull, ~0ull);
  const std::vector<IpAddress> hot{zero, ones, random_address(family, rng)};
  std::vector<IpAddress> fixed = hot;
  for (int i = 0; i < 200; ++i) fixed.push_back(random_address(family, rng));

  int max_depth = 0;
  bool above = false;
  bool at = false;
  bool below = false;
  for (int round = 0; round < rounds; ++round) {
    std::vector<RangeNode*> leaves;
    std::vector<RangeNode*> joinable;  // internal, both children leaves
    trie.post_order([&](RangeNode& node) {
      if (node.is_leaf()) {
        leaves.push_back(&node);
      } else if (trie.child(node, 0)->is_leaf() &&
                 trie.child(node, 1)->is_leaf()) {
        joinable.push_back(&node);
      }
    });
    for (const RangeNode* leaf : leaves) {
      const int len = leaf->prefix().length();
      max_depth = std::max(max_depth, len);
      above |= len < kBits;
      at |= len == kBits;
      below |= len > kBits;
    }

    const int op = static_cast<int>(rng() % 100);
    RangeNode* touched = nullptr;
    if (op < 65) {
      RangeNode& leaf =
          op < 50 ? const_cast<RangeNode&>(
                        reference_locate(trie, hot[rng() % hot.size()]))
                  : *leaves[rng() % leaves.size()];
      if (leaf.state() == RangeNode::State::Classified) {
        leaf.reset_to_monitoring();
      }
      if (trie.split(leaf)) touched = &leaf;
    } else if (!joinable.empty()) {
      RangeNode& parent = *joinable[rng() % joinable.size()];
      RangeNode& a = *trie.child(parent, 0);
      RangeNode& b = *trie.child(parent, 1);
      a.reset_to_monitoring();
      b.reset_to_monitoring();
      if (op < 85) {
        const IngressId ingress(LinkId{1, 0});
        a.classify(ingress, round);
        b.classify(ingress, round);
        ASSERT_TRUE(trie.join_children(parent));
      } else {
        ASSERT_TRUE(trie.compact_children(parent));
      }
      touched = &parent;
    }

    std::vector<IpAddress> probes = fixed;
    if (touched != nullptr) test::append_edge_probes(touched->prefix(), probes);
    expect_descents_agree(trie, probes, round);
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_EQ(trie.directory_bytes(), expected_directory_bytes(trie));
  }
  // The churn reached every case the directory distinguishes.
  EXPECT_TRUE(above);
  EXPECT_TRUE(at);
  EXPECT_TRUE(below);
  if (family == Family::V6) {
    EXPECT_GT(max_depth, 64);
  }
}

TEST(TrieDescent, DirectoryMatchesRootDescentUnderChurnV4) {
  churn_descents(Family::V4, 0x1d1du, 800);
}

TEST(TrieDescent, DirectoryMatchesRootDescentUnderChurnV6) {
  churn_descents(Family::V6, 0x6d6du, 800);
}

TEST(TrieDescent, DirectoryLivesOnlyWhileTheRootIsInternal) {
  IpdTrie trie(Family::V4);
  EXPECT_EQ(trie.directory_bytes(), 0u);
  const std::size_t leaf_bytes = trie.memory_bytes();
  ASSERT_TRUE(trie.split(trie.root()));
  EXPECT_EQ(trie.directory_bytes(),
            IpdTrie::kDirectoryEntries * sizeof(NodeIndex));
  EXPECT_EQ(trie.census().memory_bytes,
            trie.arena_bytes() + trie.directory_bytes());
  ASSERT_TRUE(trie.compact_children(trie.root()));
  EXPECT_EQ(trie.directory_bytes(), 0u);
  EXPECT_EQ(trie.memory_bytes(), leaf_bytes);

  // A moved trie carries its directory.
  ASSERT_TRUE(trie.split(trie.root()));
  IpdTrie moved(std::move(trie));
  EXPECT_EQ(moved.directory_bytes(),
            IpdTrie::kDirectoryEntries * sizeof(NodeIndex));
  const IpAddress high = IpAddress::from_string("200.1.2.3");
  EXPECT_EQ(&moved.locate(high), moved.child(moved.root(), 1));
}

}  // namespace
}  // namespace ipd::core
