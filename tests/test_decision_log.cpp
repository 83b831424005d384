// DecisionLog: ring overwrite semantics, covering/within filters, JSON
// rendering, and the engine integration (every stage-2 lifecycle event is
// recorded with the numbers that drove it).
#include "core/decision_log.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "core/engine.hpp"
#include "json_check.hpp"

namespace ipd::core {
namespace {

using ::ipd::testing::JsonChecker;

DecisionEvent make_event(std::uint64_t ts, const char* prefix,
                         DecisionKind kind = DecisionKind::Classify) {
  DecisionEvent event;
  event.ts = static_cast<util::Timestamp>(ts);
  event.kind = kind;
  event.prefix = net::Prefix::from_string(prefix);
  return event;
}

TEST(DecisionLog, RecordsInOrderBelowCapacity) {
  DecisionLog log(8);
  for (int i = 0; i < 5; ++i) {
    log.record(make_event(static_cast<std::uint64_t>(i), "10.0.0.0/8"));
  }
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.total_recorded(), 5u);
  EXPECT_EQ(log.dropped(), 0u);
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].ts, static_cast<util::Timestamp>(i));
  }
}

TEST(DecisionLog, OverwritesOldestWhenFull) {
  DecisionLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.record(make_event(static_cast<std::uint64_t>(i), "10.0.0.0/8"));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  // The survivors are exactly the newest four, oldest first.
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].seq, 6 + i);
  }
}

TEST(DecisionLog, OverwriteIsSeamlessAcrossTheBoundary) {
  // The slot for seq is seq % capacity both before and after saturation:
  // the first overwrite must land on seq 0's slot, the second on seq 1's.
  DecisionLog log(3);
  for (int i = 0; i < 4; ++i) {
    log.record(make_event(static_cast<std::uint64_t>(i), "10.0.0.0/8"));
  }
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[1].seq, 2u);
  EXPECT_EQ(events[2].seq, 3u);
}

TEST(DecisionLog, CapacityFloorsAtOne) {
  DecisionLog log(0);
  EXPECT_EQ(log.capacity(), 1u);
  log.record(make_event(1, "10.0.0.0/8"));
  log.record(make_event(2, "10.0.0.0/8"));
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.snapshot().front().seq, 1u);
}

TEST(DecisionLog, ClearKeepsTotals) {
  DecisionLog log(4);
  for (int i = 0; i < 3; ++i) log.record(make_event(0, "10.0.0.0/8"));
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 3u);
  log.record(make_event(9, "10.0.0.0/8"));
  EXPECT_EQ(log.snapshot().front().seq, 3u);  // seq keeps counting
}

TEST(DecisionLog, EventsCoveringFiltersByContainment) {
  DecisionLog log(16);
  log.record(make_event(1, "10.0.0.0/8"));
  log.record(make_event(2, "10.1.0.0/16"));
  log.record(make_event(3, "192.168.0.0/16"));
  log.record(make_event(4, "2001:db8::/32"));

  const auto v4 = log.events_covering(net::IpAddress::from_string("10.1.2.3"));
  ASSERT_EQ(v4.size(), 2u);
  EXPECT_EQ(v4[0].prefix.to_string(), "10.0.0.0/8");
  EXPECT_EQ(v4[1].prefix.to_string(), "10.1.0.0/16");

  // Cross-family must never match, even at matching bit patterns.
  const auto v6 =
      log.events_covering(net::IpAddress::from_string("2001:db8::1"));
  ASSERT_EQ(v6.size(), 1u);
  EXPECT_EQ(v6[0].prefix.to_string(), "2001:db8::/32");
}

TEST(DecisionLog, EventsWithinFiltersDrillDown) {
  DecisionLog log(16);
  log.record(make_event(1, "10.0.0.0/8"));
  log.record(make_event(2, "10.1.0.0/16"));
  log.record(make_event(3, "10.1.2.0/24"));
  log.record(make_event(4, "11.0.0.0/8"));
  const auto within =
      log.events_within(net::Prefix::from_string("10.1.0.0/16"));
  ASSERT_EQ(within.size(), 2u);
  EXPECT_EQ(within[0].prefix.to_string(), "10.1.0.0/16");
  EXPECT_EQ(within[1].prefix.to_string(), "10.1.2.0/24");
}

TEST(DecisionLog, ToJsonIsValidAndCarriesTheNumbers) {
  DecisionEvent event = make_event(120, "10.0.0.0/8", DecisionKind::Classify);
  event.samples = 1234.5;
  event.threshold = 1000.0;
  event.share = 0.97;
  event.q = 0.95;
  event.age = 60;
  event.ingress = IngressId(topology::LinkId{7, 3});
  event.reason = "dominant-ingress share >= q with samples >= n_cidr";
  const std::string json = to_json(event);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"kind\":\"classify\""), std::string::npos);
  EXPECT_NE(json.find("\"range\":\"10.0.0.0/8\""), std::string::npos);
  EXPECT_NE(json.find("\"samples\":1234.5"), std::string::npos);
  EXPECT_NE(json.find("\"threshold\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"share\":0.97"), std::string::npos);
  EXPECT_NE(json.find("\"q\":0.95"), std::string::npos);
  EXPECT_NE(json.find("\"ingress\""), std::string::npos);
}

TEST(DecisionLog, ToJsonOmitsInvalidIngress) {
  const DecisionEvent event = make_event(0, "10.0.0.0/8", DecisionKind::Split);
  const std::string json = to_json(event);
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_EQ(json.find("\"ingress\""), std::string::npos);
}

TEST(DecisionLog, ConcurrentRecordersNeverLoseCounts) {
  DecisionLog log(64);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log] {
      for (int i = 0; i < kPerThread; ++i) {
        log.record(make_event(0, "10.0.0.0/8"));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(log.total_recorded(), kThreads * kPerThread);
  EXPECT_EQ(log.size(), 64u);
  // Sequence numbers must be unique (each record claimed its own).
  const auto events = log.snapshot();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
}

// ------------------------------------------------------- engine integration

IpdParams tiny_params() {
  IpdParams params;
  params.ncidr_factor4 = 0.001;
  params.ncidr_factor6 = 1e-7;
  return params;
}

void feed(IpdEngine& engine, const char* ip, topology::LinkId link, int n,
          util::Timestamp ts) {
  const net::IpAddress addr = net::IpAddress::from_string(ip);
  for (int i = 0; i < n; ++i) {
    engine.ingest(ts, addr, link, 1);
  }
}

TEST(DecisionLogEngine, ClassifyRecordsThresholdAndShare) {
  IpdEngine engine(tiny_params());
  DecisionLog log;
  engine.observe({.decisions = &log});
  feed(engine, "10.0.0.1", {1, 1}, 100, 30);
  engine.run_cycle(60);

  const auto events = log.snapshot();
  ASSERT_FALSE(events.empty());
  const DecisionEvent& classify = events.back();
  EXPECT_EQ(classify.kind, DecisionKind::Classify);
  EXPECT_EQ(classify.ts, 60);
  EXPECT_DOUBLE_EQ(classify.samples, 100.0);
  EXPECT_GT(classify.threshold, 0.0);          // the n_cidr bound
  EXPECT_GE(classify.samples, classify.threshold);
  EXPECT_DOUBLE_EQ(classify.share, 1.0);       // single ingress
  EXPECT_DOUBLE_EQ(classify.q, engine.params().q);
  EXPECT_TRUE(classify.ingress.valid());
}

TEST(DecisionLogEngine, SplitRecordsContestedShare) {
  IpdEngine engine(tiny_params());
  DecisionLog log;
  engine.observe({.decisions = &log});
  // Two ingresses at 50/50 in disjoint halves: no prevalence, so stage 2
  // splits the root range.
  feed(engine, "10.0.0.1", {1, 1}, 40, 30);
  feed(engine, "200.0.0.1", {2, 1}, 40, 30);
  engine.run_cycle(60);

  bool saw_split = false;
  for (const auto& event : log.snapshot()) {
    if (event.kind != DecisionKind::Split) continue;
    saw_split = true;
    EXPECT_GE(event.samples, event.threshold);
    EXPECT_LT(event.share, engine.params().q);
    EXPECT_FALSE(event.ingress.valid());
  }
  EXPECT_TRUE(saw_split);
}

TEST(DecisionLogEngine, DemoteRecordsAgeAndFloor) {
  IpdParams params = tiny_params();
  IpdEngine engine(params);
  DecisionLog log;
  engine.observe({.decisions = &log});
  feed(engine, "10.0.0.1", {1, 1}, 100, 30);
  engine.run_cycle(60);  // classify
  ASSERT_FALSE(log.snapshot().empty());
  log.clear();

  // Let it sit quiet far past drop_after: decay demotes it.
  util::Timestamp now = 60;
  for (int i = 0; i < 200; ++i) {
    now += params.t;
    engine.run_cycle(now);
    if (!log.snapshot().empty()) break;
  }
  const auto events = log.snapshot();
  ASSERT_FALSE(events.empty());
  const DecisionEvent& demote = events.front();
  EXPECT_EQ(demote.kind, DecisionKind::Demote);
  EXPECT_GT(demote.age, engine.params().e);
  EXPECT_TRUE(demote.ingress.valid());
}

TEST(DecisionLogEngine, NoLogAttachedRecordsNothing) {
  IpdEngine engine(tiny_params());
  feed(engine, "10.0.0.1", {1, 1}, 50, 30);
  engine.run_cycle(60);  // must not crash without a log
  SUCCEED();
}

}  // namespace
}  // namespace ipd::core
