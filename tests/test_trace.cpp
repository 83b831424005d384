// Flight-recorder tracer: ring overwrite, span recording, spans recorded by
// obs::Scope, Chrome trace-event JSON shape (Perfetto-loadable), and the
// crash-dump path.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/engine.hpp"
#include "json_check.hpp"
#include "obs/scope.hpp"

namespace ipd::obs {
namespace {

using ::ipd::testing::JsonChecker;

TEST(Tracer, RecordsSpans) {
  Tracer tracer(16);
  tracer.span("phase.a", 100, 50, {{"items", 3.0}});
  tracer.span("phase.b", 200, -5, {}, 2);  // negative durations clamp to 0
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.total_recorded(), 2u);
  const auto events = tracer.tail(10);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "phase.a");
  EXPECT_EQ(events[0].ts_us, 100);
  EXPECT_EQ(events[0].dur_us, 50);
  ASSERT_EQ(events[0].nargs, 1);
  EXPECT_STREQ(events[0].args[0].key, "items");
  EXPECT_DOUBLE_EQ(events[0].args[0].value, 3.0);
  EXPECT_EQ(events[1].dur_us, 0);
  EXPECT_EQ(events[1].tid, 2u);
}

TEST(Tracer, RingOverwritesOldest) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.span("e", i, 1);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.tail(10);
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first, and exactly the newest four survive.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].ts_us, 6 + i);
  }
}

TEST(Tracer, TailLimitsFromTheNewestEnd) {
  Tracer tracer(8);
  for (int i = 0; i < 5; ++i) tracer.span("e", i, 1);
  const auto events = tracer.tail(2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts_us, 3);
  EXPECT_EQ(events[1].ts_us, 4);
}

TEST(Tracer, ToJsonIsValidTraceEventFormat) {
  Tracer tracer(16);
  tracer.span("stage2.cycle", 1000, 250,
              {{"classifications", 2.0}, {"splits", 1.0}});
  tracer.span("snapshot", 1300, 0);
  const std::string json = tracer.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // The Chrome/Perfetto trace-event envelope and required per-event keys.
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage2.cycle\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"snapshot\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":250"), std::string::npos);
  EXPECT_NE(json.find("\"pid\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\""), std::string::npos);
  EXPECT_NE(json.find("\"classifications\":2"), std::string::npos);
}

TEST(Tracer, EmptyTracerStillProducesValidJson) {
  Tracer tracer(4);
  const std::string json = tracer.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(Tracer, ScopeCloseRecordsSpanWithArgs) {
  Tracer tracer(8);
  const Layer layer("scoped.work", 3, nullptr, &tracer, nullptr);
  std::int64_t start_us = 0;
  {
    Scope scope(layer);
    start_us = tracer.ts_us(scope.start_ns());
    scope.close({{"ranges", 17.0}});
  }  // the destructor after close() must not record again
  ASSERT_EQ(tracer.size(), 1u);
  const auto events = tracer.tail(1);
  EXPECT_STREQ(events[0].name, "scoped.work");
  EXPECT_EQ(events[0].ts_us, start_us);
  EXPECT_EQ(events[0].tid, 3u);
  ASSERT_EQ(events[0].nargs, 1);
  EXPECT_STREQ(events[0].args[0].key, "ranges");
  EXPECT_DOUBLE_EQ(events[0].args[0].value, 17.0);
}

TEST(Tracer, ScopeSpanDurationIsTheClosedInterval) {
  Tracer tracer(8);
  const Layer layer("timed.work", 1, nullptr, &tracer, nullptr);
  Scope scope(layer);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const std::int64_t ns = scope.close();
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_GE(ns, 2000000);
  EXPECT_EQ(tracer.tail(1)[0].dur_us, ns / 1000);
}

TEST(Tracer, ScopeWithNullTracerIsNoop) {
  const Layer layer("nothing", 1, nullptr, nullptr, nullptr);
  Scope scope(layer);
  EXPECT_EQ(scope.close({{"x", 1.0}}), 0);  // inert: no clock, no record
}

TEST(Tracer, CrashDumpWritesParseableFile) {
  const std::string path = ::testing::TempDir() + "ipd_trace_crash_test.json";
  Tracer tracer(8);
  tracer.span("before.crash", 10, 5, {});
  tracer.dump_for_crash(path.c_str(), 0);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("before.crash"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Tracer, EngineCycleEmitsPhaseSpans) {
  core::IpdParams params;
  params.ncidr_factor4 = 0.001;
  core::IpdEngine engine(params);
  Tracer tracer;
  engine.attach_tracer(tracer);
  const net::IpAddress ip = net::IpAddress::from_string("10.0.0.1");
  for (int i = 0; i < 50; ++i) engine.ingest(30, ip, {1, 1}, 1);
  engine.run_cycle(60);

  const std::string json = tracer.to_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // One span per stage-2 phase plus the enclosing cycle span.
  for (const char* name :
       {"stage2.expire", "stage2.classify", "stage2.split", "stage2.join",
        "stage2.compact", "stage2.cycle"}) {
    EXPECT_NE(json.find(std::string("\"name\":\"") + name + "\""),
              std::string::npos)
        << "missing span " << name;
  }
}

TEST(Tracer, CycleMeasurementReachesEverySink) {
  // One stage-2 cycle is measured once: the stage2.cycle span, the
  // ipd_cycle_seconds histogram and CycleStats::cycle_micros carry the same
  // interval, and each stage2.<phase> span the same total as phase_micros
  // and ipd_cycle_phase_seconds{phase}.
  core::IpdParams params;
  params.ncidr_factor4 = 0.001;
  core::IpdEngine engine(params);
  MetricsRegistry registry;
  Tracer tracer;
  engine.attach_metrics(registry);
  engine.attach_tracer(tracer);
  for (std::uint32_t i = 0; i < 400; ++i) {
    const net::IpAddress ip = net::IpAddress::v4((10u << 24) | (i << 12));
    engine.ingest(30, ip, {1, static_cast<std::uint16_t>(i % 3)}, 1);
  }
  const core::CycleStats stats = engine.run_cycle(60);
  core::EngineMetrics& metrics = *engine.metrics();

  const std::vector<TraceEvent> events = tracer.tail();
  const auto find = [&events](const char* name) -> const TraceEvent* {
    for (const TraceEvent& event : events) {
      if (std::string(event.name) == name) return &event;
    }
    return nullptr;
  };
  const TraceEvent* cycle = find("stage2.cycle");
  ASSERT_NE(cycle, nullptr);
  EXPECT_EQ(cycle->tid, 2u);
  EXPECT_EQ(cycle->dur_us, stats.cycle_micros);
  EXPECT_EQ(metrics.cycle_seconds->count(), 1u);
  EXPECT_NEAR(metrics.cycle_seconds->sum(),
              static_cast<double>(stats.cycle_micros) * 1e-6, 1e-6);

  const char* const kPhases[] = {"stage2.expire", "stage2.classify",
                                 "stage2.split", "stage2.join",
                                 "stage2.compact"};
  for (std::size_t p = 0; p < core::kNumCyclePhases; ++p) {
    const TraceEvent* phase = find(kPhases[p]);
    ASSERT_NE(phase, nullptr) << kPhases[p];
    EXPECT_EQ(phase->tid, 2u);
    EXPECT_EQ(phase->dur_us, stats.phase_micros[p]) << kPhases[p];
    EXPECT_NEAR(metrics.phase_seconds[p]->sum(),
                static_cast<double>(stats.phase_micros[p]) * 1e-6, 1e-6)
        << kPhases[p];
    // Laid end to end inside the cycle span (one thread: the phase totals
    // cannot exceed the cycle).
    EXPECT_GE(phase->ts_us, cycle->ts_us) << kPhases[p];
    EXPECT_LE(phase->ts_us + phase->dur_us, cycle->ts_us + cycle->dur_us)
        << kPhases[p];
  }
}

}  // namespace
}  // namespace ipd::obs
