// Flow provenance tracing: unit tests for the deterministic sampler and
// journey ring, plus end-to-end journeys through the collector tier (all
// five hop kinds, monotonic observation clocks) and stage-2 decision
// correlation through the decision log.
#include "obs/flow_trace.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <vector>

#include "analysis/introspection.hpp"
#include "analysis/runner.hpp"
#include "collector/collector.hpp"
#include "core/decision_log.hpp"
#include "core/engine.hpp"
#include "json_check.hpp"
#include "netflow/flow_record.hpp"

namespace ipd {
namespace {

using obs::FlowHopKind;
using obs::FlowTracer;
using obs::FlowTracerConfig;

net::IpAddress ip4(std::uint32_t v) { return net::IpAddress::v4(v); }

TEST(FlowTracer, PeriodRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlowTracer(FlowTracerConfig{.sample_period = 100}).sample_period(),
            128u);
  EXPECT_EQ(FlowTracer(FlowTracerConfig{.sample_period = 1}).sample_period(),
            1u);
  EXPECT_EQ(FlowTracer(FlowTracerConfig{.sample_period = 4096}).sample_period(),
            4096u);
}

TEST(FlowTracer, FlowIdIsDeterministicAndInputSensitive) {
  const topology::LinkId link{5, 2};
  const std::uint64_t a = FlowTracer::flow_id(1000, ip4(0x0A000001), link);
  EXPECT_EQ(a, FlowTracer::flow_id(1000, ip4(0x0A000001), link));
  EXPECT_NE(a, FlowTracer::flow_id(1001, ip4(0x0A000001), link));
  EXPECT_NE(a, FlowTracer::flow_id(1000, ip4(0x0A000002), link));
  EXPECT_NE(a, FlowTracer::flow_id(1000, ip4(0x0A000001), {5, 3}));
}

TEST(FlowTracer, PeriodOneSamplesEverything) {
  FlowTracer tracer(FlowTracerConfig{.sample_period = 1, .max_flows = 64});
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_NE(tracer.observe(FlowHopKind::Decode, 1000 + i, ip4(i), {1, 0}),
              0u);
  }
  EXPECT_EQ(tracer.flows_sampled(), 32u);
}

TEST(FlowTracer, LargePeriodSamplesRoughlyOneInPeriod) {
  FlowTracer tracer(
      FlowTracerConfig{.sample_period = 256, .max_flows = 1 << 14});
  constexpr int kFlows = 100000;
  for (int i = 0; i < kFlows; ++i) {
    tracer.observe(FlowHopKind::Decode, 1000 + i,
                   ip4(static_cast<std::uint32_t>(i) * 2654435761u), {1, 0});
  }
  // The hash is well mixed, so the sampled count concentrates around
  // kFlows/256 ≈ 390; a factor-of-three band is far outside noise.
  EXPECT_GT(tracer.flows_sampled(), 130u);
  EXPECT_LT(tracer.flows_sampled(), 1170u);
}

TEST(FlowTracer, JourneyAccumulatesHopsInOrderAndCaps) {
  FlowTracer tracer(FlowTracerConfig{
      .sample_period = 1, .max_flows = 8, .max_hops_per_flow = 3});
  const net::IpAddress ip = ip4(0x0A000001);
  const topology::LinkId link{7, 1};
  const std::uint64_t id = tracer.observe(FlowHopKind::Decode, 500, ip, link);
  ASSERT_NE(id, 0u);
  tracer.record(id, FlowHopKind::RingEnqueue, 500, ip, link, 3);
  tracer.record(id, FlowHopKind::RingDequeue, 500, ip, link);
  tracer.record(id, FlowHopKind::TrieApply, 500, ip, link);  // over the cap

  const auto journeys = tracer.journeys();
  ASSERT_EQ(journeys.size(), 1u);
  const auto& j = journeys[0];
  EXPECT_EQ(j.id, id);
  EXPECT_EQ(j.first_ts, 500);
  ASSERT_EQ(j.hops.size(), 3u);
  EXPECT_EQ(j.hops[0].kind, FlowHopKind::Decode);
  EXPECT_EQ(j.hops[1].kind, FlowHopKind::RingEnqueue);
  EXPECT_EQ(j.hops[1].detail, 3u);
  EXPECT_EQ(j.hops[2].kind, FlowHopKind::RingDequeue);
  EXPECT_EQ(j.hops_dropped, 1u);
  // Observation clocks never run backwards within a journey.
  EXPECT_LE(j.hops[0].mono_ns, j.hops[1].mono_ns);
  EXPECT_LE(j.hops[1].mono_ns, j.hops[2].mono_ns);
}

TEST(FlowTracer, FifoEvictionDropsOldestJourney) {
  FlowTracer tracer(FlowTracerConfig{.sample_period = 1, .max_flows = 2});
  const topology::LinkId link{1, 0};
  const std::uint64_t first =
      tracer.observe(FlowHopKind::Decode, 100, ip4(1), link);
  tracer.observe(FlowHopKind::Decode, 101, ip4(2), link);
  tracer.observe(FlowHopKind::Decode, 102, ip4(3), link);
  EXPECT_EQ(tracer.journeys_evicted(), 1u);
  const auto journeys = tracer.journeys();
  ASSERT_EQ(journeys.size(), 2u);
  for (const auto& j : journeys) EXPECT_NE(j.id, first);
  // A hop for the evicted flow re-creates a journey rather than writing
  // through a stale index entry.
  tracer.record(first, FlowHopKind::TrieApply, 100, ip4(1), link);
  EXPECT_EQ(tracer.journeys_evicted(), 2u);
  EXPECT_EQ(tracer.journeys().back().id, first);
}

TEST(FlowTracer, JourneysLimitReturnsNewestOldestFirst) {
  FlowTracer tracer(FlowTracerConfig{.sample_period = 1, .max_flows = 16});
  for (std::uint32_t i = 0; i < 5; ++i) {
    tracer.observe(FlowHopKind::Decode, 100 + i, ip4(i), {1, 0});
  }
  const auto all = tracer.journeys();
  ASSERT_EQ(all.size(), 5u);
  const auto tail = tracer.journeys(2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].id, all[3].id);
  EXPECT_EQ(tail[1].id, all[4].id);
}

TEST(FlowTracer, EnvOverrideParsesAndFallsBack) {
  ASSERT_EQ(unsetenv("IPD_FLOW_SAMPLE"), 0);
  EXPECT_EQ(FlowTracer::sample_period_from_env(512), 512u);
  ASSERT_EQ(setenv("IPD_FLOW_SAMPLE", "256", 1), 0);
  EXPECT_EQ(FlowTracer::sample_period_from_env(512), 256u);
  ASSERT_EQ(setenv("IPD_FLOW_SAMPLE", "garbage", 1), 0);
  EXPECT_EQ(FlowTracer::sample_period_from_env(512), 512u);
  ASSERT_EQ(setenv("IPD_FLOW_SAMPLE", "0", 1), 0);
  EXPECT_EQ(FlowTracer::sample_period_from_env(512), 512u);
  ASSERT_EQ(setenv("IPD_FLOW_SAMPLE", "12x", 1), 0);
  EXPECT_EQ(FlowTracer::sample_period_from_env(512), 512u);
  ASSERT_EQ(unsetenv("IPD_FLOW_SAMPLE"), 0);
}

TEST(FlowTracer, JourneyJsonIsValidAndCarriesEveryField) {
  FlowTracer tracer(FlowTracerConfig{.sample_period = 1});
  const std::uint64_t id =
      tracer.observe(FlowHopKind::Decode, 777, ip4(0x0A0B0C00), {9, 4});
  tracer.record(id, FlowHopKind::TrieApply, 777, ip4(0x0A0B0C00), {9, 4});
  const auto journeys = tracer.journeys();
  ASSERT_EQ(journeys.size(), 1u);

  const std::string json = obs::to_json(journeys[0]);
  EXPECT_TRUE(testing::JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"ip\":\"10.11.12.0\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"link\":\"9/4\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"first_ts\":777"), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage\":\"decode\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stage\":\"trie_apply\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"decisions\":[]"), std::string::npos) << json;

  const std::string with_decisions =
      obs::to_json(journeys[0], "{\"kind\":\"classify\"}");
  EXPECT_TRUE(testing::JsonChecker(with_decisions).valid()) << with_decisions;
  EXPECT_NE(with_decisions.find("\"decisions\":[{\"kind\":\"classify\"}]"),
            std::string::npos);
}

// --- End-to-end: the collector tier records every hop kind. -------------

TEST(FlowTraceIntegration, CollectorJourneyWalksEveryStage) {
  obs::FlowTracer tracer(FlowTracerConfig{
      .sample_period = 1, .max_flows = 1 << 16, .max_hops_per_flow = 16});
  core::IpdParams params;
  params.ncidr_factor4 = 0.001;
  params.ncidr_factor6 = 1e-7;
  collector::CollectorConfig config;
  config.stat_time.activity_threshold = 1;
  config.stat_time.max_skew = 3600;
  config.flow_trace = &tracer;
  config.shard_bits = 2;  // sharded engine => shard_route hops exist
  config.ingest_threads = 2;
  collector::CollectorService service(params, config, /*n_sources=*/1);
  service.start();

  for (int minute = 0; minute < 8; ++minute) {
    const util::Timestamp ts = 1000000 + minute * 60;
    std::vector<netflow::FlowRecord> flows(60);
    for (int i = 0; i < 60; ++i) {
      flows[static_cast<std::size_t>(i)].ts = ts + i % 60;
      flows[static_cast<std::size_t>(i)].src_ip =
          ip4(0x0A000000u + (static_cast<std::uint32_t>(i) << 8));
      flows[static_cast<std::size_t>(i)].ingress = {5, 2};
    }
    service.submit_records(0, flows);
  }
  service.stop();

  ASSERT_GT(tracer.flows_sampled(), 0u);
  // At least one journey must have walked the full pipeline:
  // decode -> ring_enqueue -> ring_dequeue -> shard_route -> trie_apply,
  // in causal order, with a non-decreasing observation clock.
  bool complete = false;
  for (const auto& journey : tracer.journeys()) {
    std::vector<FlowHopKind> kinds;
    std::int64_t prev_ns = 0;
    bool monotonic = true;
    for (const auto& hop : journey.hops) {
      kinds.push_back(hop.kind);
      if (hop.mono_ns < prev_ns) monotonic = false;
      prev_ns = hop.mono_ns;
    }
    const std::vector<FlowHopKind> expected{
        FlowHopKind::Decode, FlowHopKind::RingEnqueue,
        FlowHopKind::RingDequeue, FlowHopKind::ShardRoute,
        FlowHopKind::TrieApply};
    if (kinds == expected) {
      EXPECT_TRUE(monotonic) << "observation clock ran backwards";
      complete = true;
      break;
    }
  }
  EXPECT_TRUE(complete)
      << "no journey recorded the full decode->apply hop sequence";
}

// --- Replay path: the bundle's synth_decode flag supplies the Decode hop. -

/// Replay 5 minutes of one-link traffic through a BinnedRunner built
/// *before* the bundle is applied; returns the sampled journeys.
std::vector<obs::FlowJourney> runner_journeys(bool synth_decode) {
  core::IpdEngine engine(core::IpdParams{});
  analysis::BinnedRunner runner(engine, nullptr);
  FlowTracer tracer(FlowTracerConfig{.sample_period = 4, .max_flows = 4096});
  engine.observe({.flow_trace = &tracer, .synth_decode = synth_decode});
  for (int i = 0; i < 1200; ++i) {
    netflow::FlowRecord r;
    r.ts = 1000000 + i / 4;
    r.src_ip = ip4(0x0A000000u + (static_cast<std::uint32_t>(i) << 8));
    r.ingress = {3, 1};
    runner.offer(r);
  }
  runner.finish();
  return tracer.journeys();
}

TEST(FlowTraceIntegration, RunnerJourneysBeginWithDecodeWhenTheBundleSaysSo) {
  const auto journeys = runner_journeys(/*synth_decode=*/true);
  ASSERT_GT(journeys.size(), 100u);  // ~1/4 of 1200 records
  for (const auto& journey : journeys) {
    ASSERT_EQ(journey.hops.size(), 3u);
    EXPECT_EQ(journey.hops[0].kind, FlowHopKind::Decode);
    EXPECT_EQ(journey.hops[1].kind, FlowHopKind::ShardRoute);
    EXPECT_EQ(journey.hops[2].kind, FlowHopKind::TrieApply);
  }
  // The flag is the bundle's, not the runner's: left off, no Decode hop.
  for (const auto& journey : runner_journeys(/*synth_decode=*/false)) {
    ASSERT_FALSE(journey.hops.empty());
    EXPECT_EQ(journey.hops[0].kind, FlowHopKind::ShardRoute);
  }
}

// --- Stage-2 correlation: classification decisions join the journey. ----

TEST(FlowTraceIntegration, DecisionsCorrelateToJourneysByIpAndTime) {
  core::IpdParams params;
  params.ncidr_factor4 = 0.001;
  params.ncidr_factor6 = 1e-7;
  core::IpdEngine engine(params);
  core::DecisionLog log;
  obs::FlowTracer tracer(
      FlowTracerConfig{.sample_period = 1, .max_flows = 1 << 16});
  engine.observe({.decisions = &log, .flow_trace = &tracer});

  analysis::BinnedRunner runner(engine, nullptr);
  // Concentrated traffic from one /8 through one link classifies quickly.
  for (int minute = 0; minute < 20; ++minute) {
    const util::Timestamp ts = 1000000 + minute * 60;
    for (int i = 0; i < 60; ++i) {
      netflow::FlowRecord r;
      r.ts = ts + i;
      r.src_ip = ip4(0x0A000000u + (static_cast<std::uint32_t>(i) << 10));
      r.ingress = {5, 2};
      runner.offer(r);
    }
  }
  runner.finish();

  ASSERT_GT(log.total_recorded(), 0u) << "workload produced no decisions";
  ASSERT_GT(tracer.flows_sampled(), 0u);

  bool correlated = false;
  for (const auto& journey : tracer.journeys()) {
    const auto events = log.events_covering(journey.ip);
    for (const auto& event : events) {
      if (event.ts >= journey.first_ts) {
        correlated = true;
        // The rendered journey carries the same event.
        const std::string json =
            analysis::flow_journey_json(journey, &log);
        EXPECT_TRUE(testing::JsonChecker(json).valid()) << json;
        EXPECT_NE(json.find("\"decisions\":[{"), std::string::npos)
            << "journey with covering decision rendered an empty array";
        break;
      }
    }
    if (correlated) break;
  }
  EXPECT_TRUE(correlated)
      << "no sampled journey was covered by a later stage-2 decision";

  // The text rendering counts the same correlation.
  const auto journeys = tracer.journeys(3);
  for (const auto& journey : journeys) {
    const std::string line = analysis::flow_journey_text(journey, &log);
    EXPECT_NE(line.find("ip="), std::string::npos);
    EXPECT_NE(line.find("decisions="), std::string::npos);
  }
}

}  // namespace
}  // namespace ipd
