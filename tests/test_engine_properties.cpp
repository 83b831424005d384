// Property-style tests: invariants that must hold for every parameter
// combination, checked with parameterized sweeps over q and cidr_max and
// randomized traffic.
#include <gtest/gtest.h>

#include <set>

#include "core/engine.hpp"
#include "util/rng.hpp"

namespace ipd::core {
namespace {

using net::Family;
using net::IpAddress;
using net::Prefix;
using topology::LinkId;

struct SweepParam {
  double q;
  int cidr_max;
  double factor;
};

class EngineSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  IpdParams make_params() const {
    IpdParams params;
    params.q = GetParam().q;
    params.cidr_max4 = GetParam().cidr_max;
    params.ncidr_factor4 = GetParam().factor;
    params.ncidr_factor6 = 1e-6;
    return params;
  }

  /// Random traffic: a few hot /16 blocks, each pinned to a link, plus
  /// cross-link noise.
  void pump(IpdEngine& engine, util::Rng& rng, util::Timestamp ts, int n) {
    for (int i = 0; i < n; ++i) {
      const auto block = static_cast<std::uint32_t>(rng.below(6));
      const auto ip =
          IpAddress::v4((block << 24) | static_cast<std::uint32_t>(rng.below(1u << 24)));
      LinkId link{block % 3, static_cast<topology::InterfaceIndex>(block % 2)};
      if (rng.chance(0.02)) link = LinkId{9, 0};  // noise
      engine.ingest(ts + static_cast<util::Timestamp>(rng.below(60)), ip, link);
    }
  }
};

/// The leaves must always form a disjoint partition that covers the whole
/// address space: every leaf's parent chain exists, siblings are complete,
/// and locate() terminates at a leaf for arbitrary addresses.
TEST_P(EngineSweep, PartitionIsCompleteAndDisjoint) {
  IpdEngine engine(make_params());
  util::Rng rng(99);
  util::Timestamp now = 0;
  for (int cycle = 1; cycle <= 20; ++cycle) {
    pump(engine, rng, now, 2000);
    now += 60;
    engine.run_cycle(now);

    // Collect leaves; verify ordering and coverage by address arithmetic:
    // each leaf must start exactly where the previous one ended.
    std::vector<Prefix> leaves;
    engine.trie(Family::V4).for_each_leaf(
        [&leaves](const RangeNode& leaf) { leaves.push_back(leaf.prefix()); });
    ASSERT_FALSE(leaves.empty());
    double covered = 0.0;
    std::uint64_t expected_start = 0;
    for (const auto& leaf : leaves) {
      EXPECT_EQ(leaf.address().v4_value(), expected_start);
      covered += leaf.address_count();
      expected_start = leaf.address().offset(
          static_cast<std::uint64_t>(leaf.address_count())).v4_value();
    }
    EXPECT_DOUBLE_EQ(covered, 4294967296.0);
  }
}

/// No leaf may ever exceed cidr_max.
TEST_P(EngineSweep, CidrMaxIsRespected) {
  IpdEngine engine(make_params());
  util::Rng rng(7);
  util::Timestamp now = 0;
  for (int cycle = 1; cycle <= 15; ++cycle) {
    pump(engine, rng, now, 3000);
    now += 60;
    engine.run_cycle(now);
  }
  engine.trie(Family::V4).for_each_leaf([this](const RangeNode& leaf) {
    EXPECT_LE(leaf.prefix().length(), GetParam().cidr_max);
  });
}

/// Every classified range must actually satisfy the dominance predicate
/// with respect to its own counters, and its counters must be coherent.
TEST_P(EngineSweep, ClassifiedRangesSatisfyQ) {
  IpdEngine engine(make_params());
  util::Rng rng(13);
  util::Timestamp now = 0;
  for (int cycle = 1; cycle <= 15; ++cycle) {
    pump(engine, rng, now, 3000);
    now += 60;
    engine.run_cycle(now);
    engine.trie(Family::V4).for_each_leaf([&](const RangeNode& leaf) {
      if (leaf.state() != RangeNode::State::Classified) return;
      EXPECT_TRUE(leaf.ingress().valid());
      EXPECT_GE(leaf.counts().share_of(leaf.ingress()),
                engine.params().q - 1e-9);
      EXPECT_TRUE(leaf.ips().empty());
    });
  }
}

/// Counters must never go negative, and the monitoring aggregate must equal
/// the sum of the per-IP detail.
TEST_P(EngineSweep, MonitoringAggregatesMatchDetail) {
  IpdEngine engine(make_params());
  util::Rng rng(17);
  util::Timestamp now = 0;
  for (int cycle = 1; cycle <= 10; ++cycle) {
    pump(engine, rng, now, 2000);
    now += 60;
    engine.run_cycle(now);
    engine.trie(Family::V4).for_each_leaf([](const RangeNode& leaf) {
      for (const auto& [link, count] : leaf.counts().entries()) {
        (void)link;
        EXPECT_GE(count, 0.0);
      }
      if (leaf.state() != RangeNode::State::Monitoring) return;
      double detail_total = 0.0;
      for (const auto& [ip, entry] : leaf.ips()) {
        (void)ip;
        detail_total += entry.total;
      }
      EXPECT_NEAR(leaf.counts().total(), detail_total, 1e-6);
    });
  }
}

/// Node/leaf counters of the trie stay consistent with a full recount.
TEST_P(EngineSweep, TreeCountersConsistent) {
  IpdEngine engine(make_params());
  util::Rng rng(23);
  util::Timestamp now = 0;
  for (int cycle = 1; cycle <= 10; ++cycle) {
    pump(engine, rng, now, 2500);
    now += 60;
    engine.run_cycle(now);
  }
  for (const auto family : {Family::V4, Family::V6}) {
    const auto& trie = engine.trie(family);
    std::size_t leaves = 0;
    trie.for_each_leaf([&leaves](const RangeNode&) { ++leaves; });
    EXPECT_EQ(leaves, trie.leaf_count());
  }
}

/// Determinism: identical input produces identical partitions.
TEST_P(EngineSweep, DeterministicAcrossRuns) {
  const auto run = [this] {
    IpdEngine engine(make_params());
    util::Rng rng(31);
    util::Timestamp now = 0;
    std::vector<std::string> out;
    for (int cycle = 1; cycle <= 8; ++cycle) {
      pump(engine, rng, now, 1500);
      now += 60;
      engine.run_cycle(now);
    }
    engine.trie(Family::V4).for_each_leaf([&out](const RangeNode& leaf) {
      out.push_back(leaf.prefix().to_string() + "|" +
                    (leaf.state() == RangeNode::State::Classified
                         ? leaf.ingress().to_string()
                         : std::string("?")));
    });
    return out;
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Shard-routing invariants of the sharded parallel engine. The routing
// function is pure address arithmetic, so these sweep shard widths and
// random addresses rather than traffic.

IpAddress random_addr(util::Rng& rng, Family family) {
  if (family == Family::V4) {
    return IpAddress::v4(static_cast<std::uint32_t>(rng.below(1ull << 32)));
  }
  const std::uint64_t hi =
      (rng.below(1ull << 32) << 32) | rng.below(1ull << 32);
  const std::uint64_t lo =
      (rng.below(1ull << 32) << 32) | rng.below(1ull << 32);
  return IpAddress::v6(hi, lo);
}

/// Every address lies in exactly one shard prefix, and shard_of agrees
/// with the prefix arithmetic. The shard prefixes tile the family: each
/// starts exactly where the previous one ends.
TEST(ShardRouting, EveryAddressMapsToExactlyOneShard) {
  for (const int bits : {0, 1, 4, 8}) {
    SCOPED_TRACE("shard_bits=" + std::to_string(bits));
    EngineConfig config;
    config.shard_bits = bits;
    IpdEngine engine(IpdParams{}, config);
    ASSERT_EQ(engine.shard_count(), std::size_t{1} << bits);

    util::Rng rng(42);
    for (const Family family : {Family::V4, Family::V6}) {
      // Tiling: 2^bits prefixes of length `bits`, in address order — the
      // i-th shard starts at i * 2^(width - bits), so together they cover
      // the family exactly once.
      for (std::size_t i = 0; i < engine.shard_count(); ++i) {
        const Prefix shard = engine.shard_prefix(family, i);
        EXPECT_EQ(shard.length(), bits);
        const IpAddress expected_start =
            family == Family::V4
                ? IpAddress::v4(bits == 0 ? 0u
                                          : static_cast<std::uint32_t>(
                                                i << (32 - bits)))
                : IpAddress::v6(bits == 0 ? 0ull : i << (64 - bits), 0);
        EXPECT_EQ(shard.address(), expected_start);
      }

      for (int trial = 0; trial < 5000; ++trial) {
        const IpAddress addr = random_addr(rng, family);
        const std::size_t owner = engine.shard_of(addr);
        ASSERT_LT(owner, engine.shard_count());
        std::size_t containing = 0;
        for (std::size_t i = 0; i < engine.shard_count(); ++i) {
          if (engine.shard_prefix(family, i).contains(addr)) {
            ++containing;
            EXPECT_EQ(i, owner);
          }
        }
        EXPECT_EQ(containing, 1u);
      }
    }
  }
}

/// shard_of is invariant under masking to any length >= shard_bits — in
/// particular to cidr_max, the mask stage 1 applies before routing. A flow
/// and its masked representative always land in the same shard.
TEST(ShardRouting, StableUnderMaskingToCidrMax) {
  IpdParams params;
  for (const int bits : {1, 4, 8}) {
    SCOPED_TRACE("shard_bits=" + std::to_string(bits));
    EngineConfig config;
    config.shard_bits = bits;
    IpdEngine engine(params, config);
    util::Rng rng(43);
    for (const Family family : {Family::V4, Family::V6}) {
      const int cidr_max = params.cidr_max(family);
      ASSERT_GE(cidr_max, bits);
      for (int trial = 0; trial < 5000; ++trial) {
        const IpAddress addr = random_addr(rng, family);
        const std::size_t owner = engine.shard_of(addr);
        EXPECT_EQ(engine.shard_of(addr.masked(cidr_max)), owner);
        for (int len = bits; len <= cidr_max; ++len) {
          EXPECT_EQ(engine.shard_of(addr.masked(len)), owner);
        }
      }
    }
  }
}

/// No two parallel units can ever hold overlapping prefixes: across many
/// cycles of live traffic, every leaf either lies entirely inside one
/// shard (length >= shard_bits) or is shard-aligned and covers whole
/// shards (length < shard_bits), and the concatenated per-unit walks still
/// tile the address space with no gap or overlap.
TEST(ShardRouting, ShardsNeverHoldOverlappingPrefixes) {
  IpdParams params;
  params.cidr_max4 = 24;
  params.ncidr_factor4 = 0.002;
  params.ncidr_factor6 = 1e-6;
  params.q = 0.8;
  EngineConfig config;
  config.shard_bits = 3;
  config.ingest_threads = 2;
  IpdEngine engine(params, config);

  util::Rng rng(99);
  util::Timestamp now = 0;
  std::size_t max_units = 0;
  for (int cycle = 1; cycle <= 25; ++cycle) {
    for (int i = 0; i < 2000; ++i) {
      // Hot /8 blocks spread across distinct top-3-bit shards (first
      // octets 0, 43, 86, 129, 172, 215), each pinned to one ingress.
      const auto block = static_cast<std::uint32_t>(rng.below(6));
      const auto ip = IpAddress::v4(
          ((block * 43u) << 24) |
          static_cast<std::uint32_t>(rng.below(1u << 24)));
      LinkId link{block % 3, static_cast<topology::InterfaceIndex>(block % 2)};
      if (rng.chance(0.02)) link = LinkId{9, 0};
      engine.ingest(now + static_cast<util::Timestamp>(rng.below(60)), ip,
                    link);
    }
    now += 60;
    engine.run_cycle(now);
    max_units = std::max(max_units, engine.parallel_units(Family::V4));

    std::uint64_t expected_start = 0;
    double covered = 0.0;
    engine.for_each_leaf(Family::V4, [&](const RangeNode& leaf) {
      EXPECT_EQ(leaf.prefix().address().v4_value(), expected_start);
      covered += leaf.prefix().address_count();
      expected_start = leaf.prefix()
                           .address()
                           .offset(static_cast<std::uint64_t>(
                               leaf.prefix().address_count()))
                           .v4_value();
      const IpAddress first = leaf.prefix().address();
      const IpAddress last = first.offset(static_cast<std::uint64_t>(
          leaf.prefix().address_count() - 1));
      if (leaf.prefix().length() >= config.shard_bits) {
        // Inside the cut: the leaf is contained in exactly one shard.
        EXPECT_EQ(engine.shard_of(first), engine.shard_of(last));
      } else {
        // Above the cut: the leaf must cover whole shards, starting on a
        // shard boundary — otherwise two units would overlap it.
        const auto span = std::size_t{1}
                          << (config.shard_bits - leaf.prefix().length());
        EXPECT_EQ(engine.shard_of(first) % span, 0u);
        EXPECT_EQ(engine.shard_of(last), engine.shard_of(first) + span - 1);
      }
    });
    EXPECT_DOUBLE_EQ(covered, 4294967296.0);
  }
  // The sweep must actually refine into parallel units, or the invariants
  // above were never exercised: the six hot shards must all be cut off.
  EXPECT_GE(max_units, 6u);
}

INSTANTIATE_TEST_SUITE_P(
    QAndDepthSweep, EngineSweep,
    ::testing::Values(SweepParam{0.7, 20, 0.002}, SweepParam{0.8, 24, 0.002},
                      SweepParam{0.95, 24, 0.001}, SweepParam{0.95, 28, 0.01},
                      SweepParam{0.99, 28, 0.005}, SweepParam{0.95, 16, 0.05},
                      SweepParam{0.6, 28, 0.0005}, SweepParam{1.0, 24, 0.002}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "q" + std::to_string(static_cast<int>(info.param.q * 100)) +
             "_max" + std::to_string(info.param.cidr_max) + "_f" +
             std::to_string(static_cast<int>(info.param.factor * 10000));
    });

}  // namespace
}  // namespace ipd::core
