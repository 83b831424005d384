// Adversarial / edge-case behaviour of the engine: noise robustness
// (§5.1.2's maintenance story), flapping ingresses, join cascades, the
// hard drop bound, out-of-order timestamps, and observer-bundle swaps.
#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "obs/flow_trace.hpp"
#include "util/rng.hpp"

namespace ipd::core {
namespace {

using net::Family;
using net::IpAddress;
using net::Prefix;
using topology::LinkId;

IpdParams tiny_params() {
  IpdParams params;
  params.ncidr_factor4 = 0.001;
  params.ncidr_factor6 = 1e-7;
  return params;
}

void feed(IpdEngine& engine, const Prefix& prefix, LinkId link, int n,
          util::Timestamp ts, std::uint32_t salt = 0) {
  const double count = prefix.address_count();
  const std::uint64_t span =
      count >= 9e18 ? (1ULL << 62) : static_cast<std::uint64_t>(count);
  for (int i = 0; i < n; ++i) {
    engine.ingest(ts, prefix.address().offset(
                          (static_cast<std::uint64_t>(i) * 2654435761u + salt) %
                          span),
                  link);
  }
}

TEST(EngineEdge, NoiseBurstDoesNotFlipStableClassification) {
  // The paper's AS1 story: >70k miss-flows over 45 minutes barely move the
  // confidence because >80k flows/minute keep entering the expected
  // ingress. Scaled down: a classified range with a large counter absorbs
  // a burst that is small relative to its accumulated samples.
  IpdEngine engine(tiny_params());
  feed(engine, Prefix::root(Family::V4), LinkId{1, 0}, 2000, 30);
  engine.run_cycle(60);
  ASSERT_EQ(engine.trie(Family::V4).root().state(), RangeNode::State::Classified);

  // Burst: 80 flows (4 % of accumulated) from a different link.
  feed(engine, Prefix::root(Family::V4), LinkId{9, 0}, 80, 90, /*salt=*/3);
  feed(engine, Prefix::root(Family::V4), LinkId{1, 0}, 500, 90, /*salt=*/5);
  const auto stats = engine.run_cycle(120);
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_TRUE(engine.trie(Family::V4).root().ingress().matches(LinkId{1, 0}));
}

TEST(EngineEdge, PersistentShiftDoesFlip) {
  // In contrast: a persistent shift accumulates and eventually invalidates.
  IpdEngine engine(tiny_params());
  feed(engine, Prefix::root(Family::V4), LinkId{1, 0}, 500, 30);
  engine.run_cycle(60);
  util::Timestamp now = 60;
  bool dropped = false;
  for (int minute = 0; minute < 30 && !dropped; ++minute) {
    feed(engine, Prefix::root(Family::V4), LinkId{2, 0}, 100, now + 10,
         static_cast<std::uint32_t>(minute));
    now += 60;
    dropped = engine.run_cycle(now).drops > 0;
  }
  EXPECT_TRUE(dropped);
}

TEST(EngineEdge, FlappingIngressNeverClassifies) {
  // A prefix alternating its ingress every bucket can never accumulate a
  // dominant share.
  auto params = tiny_params();
  params.cidr_max4 = 8;
  IpdEngine engine(params);
  util::Timestamp now = 0;
  for (int minute = 0; minute < 20; ++minute) {
    const LinkId link = (minute % 2) ? LinkId{1, 0} : LinkId{2, 0};
    feed(engine, Prefix::from_string("10.0.0.0/8"), link, 200, now + 10,
         static_cast<std::uint32_t>(minute));
    now += 60;
    engine.run_cycle(now);
  }
  // The leaf covering the space may be split but must not be classified.
  auto& trie = engine.trie(Family::V4);
  trie.for_each_leaf([](RangeNode& leaf) {
    if (Prefix::from_string("10.0.0.0/8").contains(leaf.prefix())) {
      EXPECT_NE(leaf.state(), RangeNode::State::Classified)
          << leaf.prefix().to_string();
    }
  });
}

TEST(EngineEdge, JoinCascadesUpTheTree) {
  // Four /2 ranges classified to the same link must collapse back into /0
  // over subsequent cycles (join is one level per cycle at the parents
  // visited in post-order — /1 joins happen in the same cycle as the /2
  // classifications, the /0 join one cycle later at the latest).
  IpdEngine engine(tiny_params());
  // Create a two-level split by feeding four links in the four /2 blocks.
  feed(engine, Prefix::from_string("0.0.0.0/2"), LinkId{1, 0}, 100, 30);
  feed(engine, Prefix::from_string("64.0.0.0/2"), LinkId{2, 0}, 100, 30);
  feed(engine, Prefix::from_string("128.0.0.0/2"), LinkId{3, 0}, 100, 30);
  feed(engine, Prefix::from_string("192.0.0.0/2"), LinkId{4, 0}, 100, 30);
  engine.run_cycle(60);   // root splits
  engine.run_cycle(120);  // /1s split
  ASSERT_EQ(engine.trie(Family::V4).leaf_count(), 4u);

  // Now everything shifts to one link; old per-IP entries expire.
  for (const char* block : {"0.0.0.0/2", "64.0.0.0/2", "128.0.0.0/2",
                            "192.0.0.0/2"}) {
    feed(engine, Prefix::from_string(block), LinkId{7, 0}, 300, 200, 99);
  }
  engine.run_cycle(300);  // expire + classify + joins cascade
  engine.run_cycle(360);
  EXPECT_EQ(engine.trie(Family::V4).leaf_count(), 1u);
  EXPECT_EQ(engine.trie(Family::V4).root().state(), RangeNode::State::Classified);
  EXPECT_TRUE(engine.trie(Family::V4).root().ingress().matches(LinkId{7, 0}));
}

TEST(EngineEdge, DropAfterHardBound) {
  auto params = tiny_params();
  params.drop_after = 300;
  IpdEngine engine(params);
  feed(engine, Prefix::root(Family::V4), LinkId{1, 0}, 1000000 / 100, 30);
  engine.run_cycle(60);
  ASSERT_EQ(engine.trie(Family::V4).root().state(), RangeNode::State::Classified);
  // Regardless of how large the counters are, the range cannot survive
  // longer than drop_after without traffic.
  bool dropped = false;
  util::Timestamp now = 60;
  for (int i = 0; i < 8 && !dropped; ++i) {
    now += 60;
    dropped = engine.run_cycle(now).drops > 0;
  }
  EXPECT_TRUE(dropped);
  EXPECT_LE(now - 30, params.drop_after + 2 * 60);
}

TEST(EngineEdge, OutOfOrderTimestampsAreTolerated) {
  IpdEngine engine(tiny_params());
  engine.ingest(100, IpAddress::from_string("10.0.0.1"), LinkId{1, 0});
  engine.ingest(40, IpAddress::from_string("10.0.0.1"), LinkId{1, 0});
  const auto& root = engine.trie(Family::V4).root();
  EXPECT_EQ(root.last_update(), 100);  // never goes backwards
  EXPECT_DOUBLE_EQ(root.counts().total(), 2.0);
}

TEST(EngineEdge, ZeroWeightCountsAsOne) {
  // Expiry subtracts per-IP counts from the leaf aggregate, which needs
  // every count >= 1: ingest() reads a weight of 0 as 1, as apply_batch
  // does for a zero byte count.
  IpdEngine engine(tiny_params());
  engine.ingest(100, IpAddress::from_string("10.0.0.1"), LinkId{1, 0}, 0);
  const auto& root = engine.trie(Family::V4).root();
  ASSERT_EQ(root.state(), RangeNode::State::Monitoring);
  EXPECT_DOUBLE_EQ(root.counts().total(), 1.0);
  EXPECT_TRUE(root.counts().bit_equal(root.rebuilt_counts()));
}

TEST(EngineEdge, ReclassificationAfterDropUsesFreshEvidence) {
  IpdEngine engine(tiny_params());
  feed(engine, Prefix::root(Family::V4), LinkId{1, 0}, 200, 30);
  engine.run_cycle(60);
  // Shift and wait for the drop...
  feed(engine, Prefix::root(Family::V4), LinkId{2, 0}, 5000, 90, 9);
  engine.run_cycle(120);
  ASSERT_EQ(engine.trie(Family::V4).root().state(), RangeNode::State::Monitoring);
  // ...the new classification must not resurrect the old ingress.
  feed(engine, Prefix::root(Family::V4), LinkId{2, 0}, 200, 150, 11);
  engine.run_cycle(180);
  EXPECT_EQ(engine.trie(Family::V4).root().state(), RangeNode::State::Classified);
  EXPECT_TRUE(engine.trie(Family::V4).root().ingress().matches(LinkId{2, 0}));
}

TEST(EngineEdge, BundleAbsorbsMemberImbalance) {
  // Once a bundle is classified, traffic concentrating on one member does
  // not invalidate it — both members still belong to the logical ingress.
  auto params = tiny_params();
  IpdEngine engine(params);
  feed(engine, Prefix::root(Family::V4), LinkId{7, 0}, 50, 30);
  feed(engine, Prefix::root(Family::V4), LinkId{7, 1}, 50, 30, 3);
  engine.run_cycle(60);
  ASSERT_TRUE(engine.trie(Family::V4).root().ingress().is_bundle());
  feed(engine, Prefix::root(Family::V4), LinkId{7, 0}, 500, 90, 5);
  const auto stats = engine.run_cycle(120);
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_TRUE(engine.trie(Family::V4).root().ingress().is_bundle());
}

TEST(EngineEdge, ZeroTrafficEngineIsStable) {
  IpdEngine engine(tiny_params());
  for (int i = 1; i <= 10; ++i) {
    const auto stats = engine.run_cycle(i * 60);
    EXPECT_EQ(stats.ranges_total, 2u);  // one v4 root + one v6 root
    EXPECT_EQ(stats.classifications, 0u);
    EXPECT_EQ(stats.drops, 0u);
  }
}

TEST(EngineEdge, ManyDistinctSourcesInOneRange) {
  // Hash-map stress: 50k distinct /28s in the root, single ingress.
  IpdEngine engine(IpdParams{});  // default thresholds: stays monitoring
  for (std::uint32_t i = 0; i < 50000; ++i) {
    engine.ingest(30, IpAddress::v4(i << 8), LinkId{1, 0});
  }
  const auto stats = engine.run_cycle(60);
  EXPECT_EQ(stats.tracked_ips, 50000u);
  EXPECT_GT(stats.memory_bytes, 50000u * sizeof(IpEntry));
  // All state expires once stale.
  engine.run_cycle(400);
  EXPECT_TRUE(engine.trie(Family::V4).root().ips().empty());
}

/// One complete set of sinks, so a test can tell which bundle a write
/// landed in.
struct Sinks {
  obs::MetricsRegistry registry;
  DecisionLog decisions;
  obs::Tracer tracer;
  CycleDeltaLog deltas;
  obs::FlowTracer flows{obs::FlowTracerConfig{.sample_period = 1}};

  EngineObservers bundle() {
    return {.metrics = &registry,
            .decisions = &decisions,
            .tracer = &tracer,
            .cycle_deltas = &deltas,
            .flow_trace = &flows};
  }
  double ingested() {
    return registry.counter("ipd_ingest_flows_total", "", {{"family", "v4"}})
        .value();
  }
};

TEST(EngineEdge, ObserveReplacesEverySink) {
  IpdEngine engine(tiny_params());
  Sinks a;
  Sinks b;
  engine.observe(a.bundle());
  EXPECT_EQ(engine.observers().decisions, &a.decisions);
  feed(engine, Prefix::root(Family::V4), LinkId{1, 0}, 300, 30);
  engine.run_cycle(60);
  feed(engine, Prefix::root(Family::V4), LinkId{1, 0}, 100, 70, /*salt=*/7);
  ASSERT_GT(a.decisions.total_recorded(), 0u);
  ASSERT_GT(a.deltas.total_recorded(), 0u);
  ASSERT_GT(a.tracer.total_recorded(), 0u);
  ASSERT_GT(a.flows.hops_recorded(), 0u);

  // The swap flushes the 100 flows buffered since the cycle into A.
  engine.observe(b.bundle());
  EXPECT_EQ(engine.observers().decisions, &b.decisions);
  EXPECT_EQ(a.ingested(), 400.0);
  const std::uint64_t a_decisions = a.decisions.total_recorded();
  const std::uint64_t a_deltas = a.deltas.total_recorded();
  const std::uint64_t a_spans = a.tracer.total_recorded();
  const std::uint64_t a_hops = a.flows.hops_recorded();

  // A flip on B's watch: demotion, re-split, re-classification.
  for (util::Timestamp ts = 90; ts <= 600; ts += 60) {
    feed(engine, Prefix::root(Family::V4), LinkId{2, 0}, 300, ts, /*salt=*/9);
    engine.run_cycle(ts + 30);
  }
  EXPECT_EQ(a.decisions.total_recorded(), a_decisions);
  EXPECT_EQ(a.deltas.total_recorded(), a_deltas);
  EXPECT_EQ(a.tracer.total_recorded(), a_spans);
  EXPECT_EQ(a.flows.hops_recorded(), a_hops);
  EXPECT_EQ(a.ingested(), 400.0);
  EXPECT_GT(b.decisions.total_recorded(), 0u);
  EXPECT_GT(b.deltas.total_recorded(), 0u);
  EXPECT_GT(b.tracer.total_recorded(), 0u);
  EXPECT_GT(b.flows.hops_recorded(), 0u);
  EXPECT_EQ(b.ingested(), 9.0 * 300);

  // An empty bundle detaches everything, including the registry.
  engine.observe({});
  feed(engine, Prefix::root(Family::V4), LinkId{2, 0}, 50, 700);
  engine.run_cycle(720);
  EXPECT_EQ(engine.metrics(), nullptr);
  EXPECT_EQ(b.ingested(), 9.0 * 300);
  EXPECT_EQ(engine.stats().flows_ingested, 400u + 9 * 300 + 50);
}

TEST(EngineEdge, CycleMemoryCountsEverySink) {
  IpdEngine bare(tiny_params());
  IpdEngine observed(tiny_params());
  Sinks sinks;
  obs::PerfCounters perf;
  EngineObservers bundle = sinks.bundle();
  bundle.perf = &perf;
  observed.observe(bundle);
  feed(bare, Prefix::root(Family::V4), LinkId{1, 0}, 300, 30);
  feed(observed, Prefix::root(Family::V4), LinkId{1, 0}, 300, 30);
  bare.run_cycle(60);
  observed.run_cycle(60);
  // The first cycle's metric publish registers the per-link counters after
  // its memory figure is taken; the second cycle registers nothing new.
  const CycleStats plain = bare.run_cycle(120);
  const CycleStats counted = observed.run_cycle(120);
  ASSERT_GT(sinks.flows.memory_bytes(), sizeof(obs::FlowTracer));
  ASSERT_GT(sinks.deltas.memory_bytes(), sizeof(CycleDeltaLog));
  // Same trie, so the difference is exactly the six sinks.
  EXPECT_EQ(counted.memory_bytes - plain.memory_bytes,
            observed.observers().memory_bytes());
  EXPECT_EQ(observed.observers().memory_bytes(),
            sinks.registry.memory_bytes() + sinks.decisions.memory_bytes() +
                sinks.tracer.memory_bytes() + sinks.deltas.memory_bytes() +
                perf.memory_bytes() + sinks.flows.memory_bytes());
}

}  // namespace
}  // namespace ipd::core
