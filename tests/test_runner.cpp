#include "analysis/runner.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "core/engine.hpp"
#include "obs/trace.hpp"
#include "topology/builder.hpp"
#include "workload/universe.hpp"

namespace ipd::analysis {
namespace {

using net::IpAddress;
using net::Prefix;
using topology::LinkId;

core::IpdParams tiny_params() {
  core::IpdParams params;
  params.ncidr_factor4 = 0.001;
  params.ncidr_factor6 = 1e-7;
  return params;
}

netflow::FlowRecord rec(util::Timestamp ts, const IpAddress& src, LinkId link) {
  netflow::FlowRecord r;
  r.ts = ts;
  r.src_ip = src;
  r.ingress = link;
  return r;
}

TEST(Runner, RunsCyclesAtEngineCadence) {
  core::IpdEngine engine(tiny_params());
  BinnedRunner runner(engine, nullptr);
  // Records spanning 10 minutes: 9 full cycle boundaries passed + finish.
  for (int minute = 0; minute < 10; ++minute) {
    for (int i = 0; i < 20; ++i) {
      runner.offer(rec(minute * 60 + i,
                       IpAddress::v4(static_cast<std::uint32_t>(i) << 24),
                       LinkId{1, 0}));
    }
  }
  runner.finish();
  EXPECT_GE(runner.cycles().size(), 9u);
  EXPECT_GE(runner.snapshots_taken(), 2u);  // one per 5 min + final
}

TEST(Runner, SnapshotCallbackFires) {
  core::IpdEngine engine(tiny_params());
  BinnedRunner runner(engine, nullptr);
  std::vector<util::Timestamp> snapshot_times;
  runner.on_snapshot = [&](util::Timestamp ts, const core::Snapshot&,
                           const core::LpmTable&) {
    snapshot_times.push_back(ts);
  };
  for (int minute = 0; minute < 11; ++minute) {
    runner.offer(rec(minute * 60, IpAddress::v4(1u << 24), LinkId{1, 0}));
  }
  runner.finish();
  ASSERT_GE(snapshot_times.size(), 2u);
  EXPECT_EQ(snapshot_times[0], 300);
  EXPECT_EQ(snapshot_times[1], 600);
}

TEST(Runner, ValidatesBinAgainstItsOwnTable) {
  // 100 flows from one link in the first 5-minute bin: after that bin the
  // range is classified, so the bin's own flows validate as correct.
  core::IpdEngine engine(tiny_params());
  topology::Topology topo = topology::build_skeleton({});
  workload::UniverseConfig uc;
  workload::Universe universe = workload::build_universe(topo, uc);

  ValidationRun validation(topo, universe);
  BinnedRunner runner(engine, &validation);

  const auto& as0 = universe.ases()[0];
  const auto block = as0.blocks_v4.front();
  for (int minute = 0; minute < 5; ++minute) {
    for (int i = 0; i < 50; ++i) {
      runner.offer(rec(minute * 60 + (i % 60),
                       block.address().offset(static_cast<std::uint64_t>(i) << 8),
                       as0.links.front()));
    }
  }
  runner.finish();

  ASSERT_FALSE(validation.bins().empty());
  const auto& bin = validation.bins().front();
  EXPECT_EQ(bin.all.total, 250u);
  // The engine classifies within the first minutes; the whole bin is then
  // validated against the end-of-bin table, so accuracy is high.
  EXPECT_GT(bin.all.accuracy(), 0.9);
}

TEST(Runner, FinishWithoutRecordsIsSafe) {
  core::IpdEngine engine(tiny_params());
  BinnedRunner runner(engine, nullptr);
  EXPECT_NO_THROW(runner.finish());
  EXPECT_EQ(runner.snapshots_taken(), 0u);
}

TEST(Runner, CycleStatsCanBeDisabled) {
  core::IpdEngine engine(tiny_params());
  RunnerConfig config;
  config.keep_cycle_stats = false;
  BinnedRunner runner(engine, nullptr, config);
  for (int minute = 0; minute < 5; ++minute) {
    runner.offer(rec(minute * 60, IpAddress::v4(7), LinkId{1, 0}));
  }
  runner.finish();
  EXPECT_TRUE(runner.cycles().empty());
  EXPECT_GT(engine.stats().cycles_run, 0u);
}

TEST(Runner, SnapshotSpanExcludesTheCallbacks) {
  // The snapshot span times the snapshot and the LPM build; whatever the
  // callbacks do afterwards (writing files, metrics, health) is not part
  // of it.
  core::IpdEngine engine(tiny_params());
  obs::Tracer tracer;
  engine.observe({.tracer = &tracer});
  BinnedRunner runner(engine, nullptr);
  constexpr auto kCallback = std::chrono::milliseconds(30);
  runner.on_snapshot = [&](util::Timestamp, const core::Snapshot&,
                           const core::LpmTable&) {
    std::this_thread::sleep_for(kCallback);
  };
  for (int minute = 0; minute < 11; ++minute) {
    runner.offer(rec(minute * 60, IpAddress::v4(1u << 24), LinkId{1, 0}));
  }
  runner.finish();
  std::size_t snapshot_spans = 0;
  std::size_t batch_spans = 0;
  for (const obs::TraceEvent& event : tracer.tail()) {
    if (std::strcmp(event.name, "stage1.batch") == 0) {
      ++batch_spans;
      EXPECT_EQ(event.tid, 1u);
    }
    if (std::strcmp(event.name, "snapshot") != 0) continue;
    ++snapshot_spans;
    EXPECT_EQ(event.tid, 1u);
    EXPECT_LT(event.dur_us, std::chrono::microseconds(kCallback).count());
  }
  EXPECT_EQ(snapshot_spans, runner.snapshots_taken());
  EXPECT_GE(snapshot_spans, 2u);
  EXPECT_GE(batch_spans, 1u);
}

}  // namespace
}  // namespace ipd::analysis
