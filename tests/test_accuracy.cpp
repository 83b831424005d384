#include "analysis/accuracy.hpp"

#include <gtest/gtest.h>

#include "topology/builder.hpp"

namespace ipd::analysis {
namespace {

using net::IpAddress;
using net::Prefix;
using topology::LinkId;

class AccuracyTest : public ::testing::Test {
 protected:
  AccuracyTest() : topo_(topology::build_skeleton({})) {
    workload::UniverseConfig config;
    config.seed = 33;
    universe_ = workload::build_universe(topo_, config);
  }

  /// One-row table, built the way a published snapshot's is.
  static core::LpmTable table_of(const Prefix& prefix,
                                 const core::IngressId& ingress) {
    core::RangeOutput row;
    row.classified = true;
    row.range = prefix;
    row.ingress = ingress;
    return core::LpmTable::from_snapshot({row});
  }

  netflow::FlowRecord flow(const IpAddress& src, LinkId ingress,
                           util::Timestamp ts = 0) const {
    netflow::FlowRecord r;
    r.ts = ts;
    r.src_ip = src;
    r.ingress = ingress;
    r.bytes = 100;
    return r;
  }

  topology::Topology topo_;
  workload::Universe universe_;
};

TEST_F(AccuracyTest, OwnerIndexMatchesUniverse) {
  const OwnerIndex owners(universe_);
  for (std::size_t i = 0; i < universe_.ases().size(); i += 5) {
    const auto& as = universe_.ases()[i];
    const auto probe = as.blocks_v4.front().address().offset(99);
    EXPECT_EQ(owners.owner(probe), i);
  }
  EXPECT_EQ(owners.owner(IpAddress::from_string("240.0.0.1")),
            workload::Universe::npos);
}

TEST_F(AccuracyTest, OwnerIndexHandlesV6) {
  const OwnerIndex owners(universe_);
  const auto& as = universe_.ases()[0];
  EXPECT_EQ(owners.owner(as.blocks_v6.front().address().offset(1)), 0u);
}

TEST_F(AccuracyTest, CheckFlowTaxonomy) {
  // Build a table mapping 10/8 to router 0 interface 0.
  // Note: routers 0..4 share PoP 0 in the skeleton (5 routers per pop).
  const auto table =
      table_of(Prefix::from_string("10.0.0.0/8"), core::IngressId(LinkId{0, 0}));

  const auto src = IpAddress::from_string("10.1.2.3");
  EXPECT_EQ(check_flow(topo_, table, flow(src, LinkId{0, 0})), Outcome::Correct);
  EXPECT_EQ(check_flow(topo_, table, flow(src, LinkId{0, 7})),
            Outcome::MissInterface);
  EXPECT_EQ(check_flow(topo_, table, flow(src, LinkId{1, 0})),
            Outcome::MissRouter);  // router 1 is in the same PoP
  // Router from another PoP:
  const auto far = static_cast<topology::RouterId>(topo_.router_count() - 1);
  EXPECT_EQ(check_flow(topo_, table, flow(src, LinkId{far, 0})),
            Outcome::MissPop);
  EXPECT_EQ(check_flow(topo_, table, flow(IpAddress::from_string("99.0.0.1"),
                                          LinkId{0, 0})),
            Outcome::Unmapped);
}

TEST_F(AccuracyTest, CheckFlowMatchesBundles) {
  const auto table =
      table_of(Prefix::from_string("10.0.0.0/8"), core::IngressId(0, {0, 1}));
  const auto src = IpAddress::from_string("10.1.2.3");
  EXPECT_EQ(check_flow(topo_, table, flow(src, LinkId{0, 0})), Outcome::Correct);
  EXPECT_EQ(check_flow(topo_, table, flow(src, LinkId{0, 1})), Outcome::Correct);
  EXPECT_EQ(check_flow(topo_, table, flow(src, LinkId{0, 2})),
            Outcome::MissInterface);
}

TEST_F(AccuracyTest, OutcomeCountsAccumulate) {
  OutcomeCounts counts;
  counts.add(Outcome::Correct);
  counts.add(Outcome::Correct);
  counts.add(Outcome::MissPop);
  counts.add(Outcome::Unmapped);
  EXPECT_EQ(counts.total, 4u);
  EXPECT_EQ(counts.correct, 2u);
  EXPECT_EQ(counts.miss_pop, 1u);
  EXPECT_EQ(counts.unmapped, 1u);
  EXPECT_EQ(counts.misses(), 2u);
  EXPECT_DOUBLE_EQ(counts.accuracy(), 0.5);
}

TEST_F(AccuracyTest, ValidationRunBinsAndSets) {
  ValidationRun run(topo_, universe_);
  const auto top5 = universe_.top_indices(5);
  const auto& top_as = universe_.ases()[top5[0]];
  const auto block = top_as.blocks_v4.front();

  const auto table = table_of(block, core::IngressId(top_as.links.front()));

  // Bin 1: two correct flows from the top AS.
  run.observe(table, flow(block.address().offset(1), top_as.links.front(), 10));
  run.observe(table, flow(block.address().offset(2), top_as.links.front(), 20));
  // Bin 2 (300 s later): one miss.
  const auto far = static_cast<topology::RouterId>(topo_.router_count() - 1);
  run.observe(table, flow(block.address().offset(3), LinkId{far, 0}, 310));
  run.finish();

  ASSERT_EQ(run.bins().size(), 2u);
  EXPECT_DOUBLE_EQ(run.bins()[0].all.accuracy(), 1.0);
  EXPECT_DOUBLE_EQ(run.bins()[0].top5.accuracy(), 1.0);
  EXPECT_EQ(run.bins()[0].volume_flows, 2u);
  EXPECT_DOUBLE_EQ(run.bins()[1].all.accuracy(), 0.0);

  // Per-AS detail for the top-5 AS.
  const auto it = run.top5_detail().find(top5[0]);
  ASSERT_NE(it, run.top5_detail().end());
  EXPECT_EQ(it->second.counts.total, 3u);
  EXPECT_EQ(it->second.distinct_miss_ips.size(), 1u);
  ASSERT_EQ(it->second.miss_timeline.size(), 2u);
  EXPECT_EQ(it->second.miss_timeline[0].second, 0u);
  EXPECT_EQ(it->second.miss_timeline[1].second, 1u);
}

TEST_F(AccuracyTest, Top20IncludesTop5) {
  ValidationRun run(topo_, universe_);
  const auto top5 = universe_.top_indices(5);
  for (const auto i : top5) {
    EXPECT_TRUE(run.is_top5(i));
    EXPECT_TRUE(run.is_top20(i));
  }
  // Some AS outside the top 20 (tier-1s have low weight).
  const auto& tier1 = universe_.tier1_indices();
  ASSERT_FALSE(tier1.empty());
  std::size_t outside = 0;
  for (const auto i : tier1) {
    if (!run.is_top20(i)) ++outside;
  }
  EXPECT_GT(outside, 0u);
}

TEST_F(AccuracyTest, BackgroundFlowsCountOnlyInAll) {
  ValidationRun run(topo_, universe_);
  const core::LpmTable empty_table;
  run.observe(empty_table, flow(IpAddress::from_string("130.0.0.1"), LinkId{0, 0}, 10));
  run.finish();
  ASSERT_EQ(run.bins().size(), 1u);
  EXPECT_EQ(run.bins()[0].all.total, 1u);
  EXPECT_EQ(run.bins()[0].all.unmapped, 1u);
  EXPECT_EQ(run.bins()[0].top20.total, 0u);
  EXPECT_EQ(run.bins()[0].top5.total, 0u);
}

}  // namespace
}  // namespace ipd::analysis
