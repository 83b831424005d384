// Observability end-to-end: the runner's on_metrics hook fires at the
// 5-minute output cadence with a registry that reflects the engine, and
// the collector wires its per-source series into the same registry.
#include "analysis/runner.hpp"

#include <gtest/gtest.h>

#include "collector/collector.hpp"
#include "core/engine.hpp"
#include "obs/export.hpp"
#include "util/logging.hpp"

namespace ipd::analysis {
namespace {

using net::IpAddress;
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

TEST(ObsIntegration, OnMetricsFiresOncePerBin) {
  obs::MetricsRegistry registry;
  core::IpdEngine engine(tiny_params());
  engine.observe({.metrics = &registry});
  BinnedRunner runner(engine, nullptr);

  std::vector<util::Timestamp> snapshot_times;
  std::vector<util::Timestamp> metrics_times;
  runner.on_snapshot = [&](util::Timestamp ts, const core::Snapshot&,
                           const core::LpmTable&) {
    snapshot_times.push_back(ts);
  };
  std::uint64_t flows_at_last_fire = 0;
  runner.on_metrics = [&](util::Timestamp ts,
                          const obs::MetricsRegistry& reg) {
    ASSERT_EQ(&reg, &registry);
    metrics_times.push_back(ts);
    // The engine's ingest deltas are flushed before the hook fires.
    for (const auto& family : reg.collect()) {
      if (family.name != "ipd_ingest_flows_total") continue;
      flows_at_last_fire = 0;
      for (const auto& s : family.samples) {
        flows_at_last_fire += static_cast<std::uint64_t>(s.value);
      }
    }
  };

  std::uint64_t offered = 0;
  for (int minute = 0; minute < 11; ++minute) {
    for (std::uint32_t i = 0; i < 20; ++i, ++offered) {
      runner.offer(rec(minute * 60 + i, IpAddress::v4(i << 24), LinkId{1, 0}));
    }
  }
  runner.finish();

  // One metrics flush per snapshot, with matching timestamps.
  EXPECT_EQ(metrics_times, snapshot_times);
  ASSERT_GE(metrics_times.size(), 2u);
  EXPECT_EQ(metrics_times[0], 300);
  EXPECT_EQ(flows_at_last_fire, offered);

  // The runner published its own series into the shared registry.
  bool saw_bin_gauge = false;
  double snapshots_total = 0.0;
  for (const auto& family : registry.collect()) {
    if (family.name == "ipd_runner_bin_buffer_bytes") saw_bin_gauge = true;
    if (family.name == "ipd_runner_snapshots_total") {
      snapshots_total = family.samples.at(0).value;
    }
  }
  EXPECT_TRUE(saw_bin_gauge);
  EXPECT_EQ(snapshots_total,
            static_cast<double>(runner.snapshots_taken()));
}

TEST(ObsIntegration, OnMetricsSilentWithoutRegistry) {
  core::IpdEngine engine(tiny_params());
  BinnedRunner runner(engine, nullptr);
  int fired = 0;
  runner.on_metrics = [&](util::Timestamp, const obs::MetricsRegistry&) {
    ++fired;
  };
  for (int minute = 0; minute < 11; ++minute) {
    runner.offer(rec(minute * 60, IpAddress::v4(1u << 24), LinkId{1, 0}));
  }
  runner.finish();
  EXPECT_GE(runner.snapshots_taken(), 2u);
  EXPECT_EQ(fired, 0);
}

TEST(ObsIntegration, CycleStatsMemoryIncludesRegistryAndBinBuffer) {
  // The honest memory total must cover the metrics registry and the bin
  // buffer, so a metered run reports strictly more than trie heap alone.
  core::IpdEngine plain(tiny_params());
  core::IpdEngine metered(tiny_params());
  obs::MetricsRegistry registry;
  metered.observe({.metrics = &registry});

  BinnedRunner plain_runner(plain, nullptr);
  BinnedRunner metered_runner(metered, nullptr);
  for (int minute = 0; minute < 6; ++minute) {
    for (std::uint32_t i = 0; i < 50; ++i) {
      const auto r =
          rec(minute * 60 + i, IpAddress::v4(i << 22), LinkId{1, 0});
      plain_runner.offer(r);
      metered_runner.offer(r);
    }
  }
  plain_runner.finish();
  metered_runner.finish();

  ASSERT_FALSE(plain_runner.cycles().empty());
  ASSERT_FALSE(metered_runner.cycles().empty());
  const auto& last_plain = plain_runner.cycles().back();
  const auto& last_metered = metered_runner.cycles().back();
  EXPECT_GT(last_metered.memory_bytes,
            last_plain.memory_bytes + registry.memory_bytes() / 2);
  // Phase timing is populated only on the metered engine.
  std::int64_t metered_phase_ns = 0, plain_phase_ns = 0;
  for (std::size_t p = 0; p < core::kNumCyclePhases; ++p) {
    metered_phase_ns += last_metered.phase_micros[p];
    plain_phase_ns += last_plain.phase_micros[p];
  }
  EXPECT_EQ(plain_phase_ns, 0);
  (void)metered_phase_ns;  // may legitimately round to 0 on a tiny cycle
}

TEST(ObsIntegration, TrieMemoryGaugeEqualsTrieMemoryAfterACycle) {
  // The per-family gauge comes from the cycle's census walk, not a second
  // walk of its own; it must still read the trie's exact footprint.
  obs::MetricsRegistry registry;
  core::IpdEngine engine(tiny_params());
  engine.observe({.metrics = &registry});
  for (int minute = 0; minute < 4; ++minute) {
    for (std::uint32_t i = 0; i < 400; ++i) {
      engine.ingest(rec(minute * 60 + (i % 60), IpAddress::v4(i << 20),
                        LinkId{1 + i % 3, 0}));
      engine.ingest(rec(minute * 60 + (i % 60),
                        IpAddress::v6(0x20010db800000000ull | std::uint64_t{i} << 24, 0),
                        LinkId{2, static_cast<topology::InterfaceIndex>(i % 2)}));
    }
    engine.run_cycle(minute * 60 + 60);
    for (const auto& [family, label] :
         {std::pair{net::Family::V4, "v4"}, std::pair{net::Family::V6, "v6"}}) {
      const double gauge =
          registry.gauge("ipd_trie_memory_bytes", "", {{"family", label}})
              .value();
      EXPECT_EQ(gauge, static_cast<double>(engine.trie(family).memory_bytes()))
          << label << " after minute " << minute;
    }
  }
}

TEST(ObsIntegration, CollectorPublishesPerSourceSeries) {
  obs::MetricsRegistry registry;
  collector::CollectorConfig config;
  config.metrics = &registry;
  config.stat_time.activity_threshold = 1;
  collector::CollectorService service(tiny_params(), config, 2);
  service.start();

  std::vector<netflow::FlowRecord> batch;
  for (std::uint32_t i = 0; i < 100; ++i) {
    batch.push_back(rec(1000 + i, IpAddress::v4(i << 20), LinkId{1, 0}));
  }
  EXPECT_EQ(service.submit_records(0, batch), batch.size());
  EXPECT_EQ(service.submit_records(1, batch), batch.size());

  // A garbage datagram lands in the malformed counter (and logs once).
  int warnings = 0;
  util::set_log_sink([&](const util::LogRecord& record) {
    if (record.level == util::LogLevel::Warn) ++warnings;
  });
  const std::vector<std::uint8_t> garbage(10, 0xff);
  EXPECT_EQ(service.submit_datagram(0, 1, garbage), 0u);
  EXPECT_EQ(service.submit_datagram(0, 1, garbage), 0u);
  util::set_log_sink(nullptr);
  EXPECT_EQ(warnings, 1);  // warn-once per source, counted thereafter

  service.stop();

  double enqueued = 0.0, malformed = 0.0;
  std::size_t ring_series = 0;
  for (const auto& family : registry.collect()) {
    if (family.name == "ipd_ring_enqueued_total") {
      for (const auto& s : family.samples) enqueued += s.value;
    }
    if (family.name == "ipd_ring_depth") ring_series = family.samples.size();
    if (family.name == "ipd_datagrams_total") {
      for (const auto& s : family.samples) {
        for (const auto& [k, v] : s.labels) {
          if (k == "result" && v == "malformed") malformed = s.value;
        }
      }
    }
  }
  EXPECT_EQ(enqueued, 200.0);
  EXPECT_EQ(ring_series, 2u);  // one depth gauge per source
  EXPECT_EQ(malformed, 2.0);
  // The engine shares the registry: its counters are present too.
  EXPECT_NE(obs::to_prometheus(registry).find("ipd_ingest_flows_total"),
            std::string::npos);
}

}  // namespace
}  // namespace ipd::analysis
