#include "analysis/stability.hpp"

#include <gtest/gtest.h>

namespace ipd::analysis {
namespace {

using core::IngressId;
using core::RangeOutput;
using core::Snapshot;
using net::Prefix;
using topology::LinkId;

RangeOutput row(util::Timestamp ts, const std::string& prefix, LinkId link,
                double count = 100.0) {
  RangeOutput r;
  r.ts = ts;
  r.classified = true;
  r.range = Prefix::from_string(prefix);
  r.ingress = IngressId(link);
  r.s_ipcount = count;
  r.s_ingress = 1.0;
  return r;
}

TEST(StabilityTracker, StintEndsOnIngressChange) {
  StabilityTracker tracker;
  tracker.observe({row(0, "10.0.0.0/16", LinkId{1, 0})});
  tracker.observe({row(300, "10.0.0.0/16", LinkId{1, 0})});
  tracker.observe({row(600, "10.0.0.0/16", LinkId{2, 0})});  // change
  ASSERT_EQ(tracker.durations().size(), 1u);
  EXPECT_DOUBLE_EQ(tracker.durations()[0], 600.0);
}

TEST(StabilityTracker, StintEndsOnDisappearance) {
  StabilityTracker tracker;
  tracker.observe({row(0, "10.0.0.0/16", LinkId{1, 0})});
  tracker.observe({row(300, "10.0.0.0/16", LinkId{1, 0})});
  tracker.observe({row(600, "20.0.0.0/16", LinkId{1, 0})});  // 10/16 gone
  ASSERT_EQ(tracker.durations().size(), 1u);
  EXPECT_DOUBLE_EQ(tracker.durations()[0], 300.0);  // last seen at 300
}

TEST(StabilityTracker, FinishClosesOpenStints) {
  StabilityTracker tracker;
  tracker.observe({row(0, "10.0.0.0/16", LinkId{1, 0})});
  tracker.finish(1000);
  ASSERT_EQ(tracker.durations().size(), 1u);
  EXPECT_DOUBLE_EQ(tracker.durations()[0], 1000.0);
}

TEST(StabilityTracker, BundleChangeCountsAsChange) {
  StabilityTracker tracker;
  auto r1 = row(0, "10.0.0.0/16", LinkId{1, 0});
  tracker.observe({r1});
  auto r2 = r1;
  r2.ts = 300;
  r2.ingress = IngressId(1, {0, 1});  // now a bundle
  tracker.observe({r2});
  EXPECT_EQ(tracker.durations().size(), 1u);
}

TEST(StabilityTracker, DurationsWithOpenIncludesRunning) {
  StabilityTracker tracker;
  tracker.observe({row(0, "10.0.0.0/16", LinkId{1, 0}),
                   row(0, "20.0.0.0/16", LinkId{2, 0})});
  const auto all = tracker.durations_with_open(500);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_TRUE(tracker.durations().empty());
}

TEST(MonotonicTracker, ClosesOnCounterDecrease) {
  MonotonicCounterTracker tracker;
  tracker.observe({row(0, "10.0.0.0/16", LinkId{1, 0}, 100)});
  tracker.observe({row(300, "10.0.0.0/16", LinkId{1, 0}, 250)});
  tracker.observe({row(600, "10.0.0.0/16", LinkId{1, 0}, 50)});  // decayed
  ASSERT_EQ(tracker.durations().size(), 1u);
  EXPECT_DOUBLE_EQ(tracker.durations()[0], 300.0);
}

TEST(MonotonicTracker, ElephantSelectionByPeakCount) {
  MonotonicCounterTracker tracker;
  Snapshot s1{row(0, "10.0.0.0/16", LinkId{1, 0}, 1e6),
              row(0, "20.0.0.0/16", LinkId{2, 0}, 10)};
  Snapshot s2{row(300, "10.0.0.0/16", LinkId{1, 0}, 2e6),
              row(300, "20.0.0.0/16", LinkId{2, 0}, 20)};
  tracker.observe(s1);
  tracker.observe(s2);
  tracker.finish(600);
  const auto elephants = tracker.elephant_durations(0.5);
  ASSERT_EQ(elephants.size(), 1u);
  EXPECT_DOUBLE_EQ(elephants[0], 600.0);
}

TEST(CompareSnapshots, FullyStable) {
  Snapshot t1{row(0, "10.0.0.0/16", LinkId{1, 0})};
  const auto t2 =
      core::LpmTable::from_snapshot({row(0, "10.0.0.0/16", LinkId{1, 0})});
  const auto share = compare_snapshots(t1, t2);
  EXPECT_DOUBLE_EQ(share.matching, 1.0);
  EXPECT_DOUBLE_EQ(share.stable, 1.0);
}

TEST(CompareSnapshots, MatchingButUnstable) {
  Snapshot t1{row(0, "10.0.0.0/16", LinkId{1, 0})};
  const auto t2 =
      core::LpmTable::from_snapshot({row(0, "10.0.0.0/16", LinkId{9, 0})});
  const auto share = compare_snapshots(t1, t2);
  EXPECT_DOUBLE_EQ(share.matching, 1.0);
  EXPECT_DOUBLE_EQ(share.stable, 0.0);
}

TEST(CompareSnapshots, PartialCoverage) {
  // t1 maps a /16; t2 only keeps one half of it (as a /17).
  Snapshot t1{row(0, "10.0.0.0/16", LinkId{1, 0})};
  const auto t2 =
      core::LpmTable::from_snapshot({row(0, "10.0.0.0/17", LinkId{1, 0})});
  const auto share = compare_snapshots(t1, t2, /*samples_per_range=*/8);
  EXPECT_NEAR(share.matching, 0.5, 0.13);
  EXPECT_NEAR(share.stable, 0.5, 0.13);
}

TEST(CompareSnapshots, WeightsByAddressCount) {
  // A large stable range and a small unstable one: the share is dominated
  // by the large range.
  Snapshot t1{row(0, "10.0.0.0/8", LinkId{1, 0}),
              row(0, "20.0.0.0/24", LinkId{2, 0})};
  const auto t2 =
      core::LpmTable::from_snapshot({row(0, "10.0.0.0/8", LinkId{1, 0})});
  const auto share = compare_snapshots(t1, t2);
  EXPECT_GT(share.stable, 0.99);
}

TEST(CompareSnapshots, EmptyInputs) {
  const auto share = compare_snapshots({}, core::LpmTable{});
  EXPECT_DOUBLE_EQ(share.matching, 0.0);
  EXPECT_DOUBLE_EQ(share.stable, 0.0);
}

}  // namespace
}  // namespace ipd::analysis
