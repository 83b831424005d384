// Stage-1 metric parity: the ingest counters an engine publishes must equal
// what record-at-a-time ingest publishes, at every shard and thread count.
//
// The engine buffers stage-1 counter deltas per shard slot and publishes
// them at each stage-2 cycle, so a batch path that drops, double-counts or
// misattributes a flow shows up here even when the trie output is
// byte-identical. Covered series: ipd_ingest_flows_total and
// ipd_ingest_weight_total (per family; flow and byte count modes) and every
// ipd_ingest_link_flows_total{router,iface} series, compared after every
// cycle and once more after a final flush.
#include <gtest/gtest.h>

#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "netflow/flow_batch.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/generator.hpp"

namespace ipd {
namespace {

using Series = std::map<std::string, double>;

/// Every ingest series in `registry`, keyed by name plus labels.
Series ingest_series(const obs::MetricsRegistry& registry) {
  Series out;
  for (const obs::FamilySnapshot& family : registry.collect()) {
    if (family.name != "ipd_ingest_flows_total" &&
        family.name != "ipd_ingest_weight_total" &&
        family.name != "ipd_ingest_link_flows_total") {
      continue;
    }
    for (const obs::SampleSnapshot& sample : family.samples) {
      std::string key = family.name;
      for (const auto& [label, value] : sample.labels) {
        key += ',' + label + '=' + value;
      }
      out[key] = sample.value;
    }
  }
  return out;
}

using ApplyFn = std::function<void(core::IpdEngine&,
                                   std::span<const netflow::FlowRecord>)>;

/// Replay `records` in cycle bins through `apply`, running a cycle at every
/// bin boundary; returns the ingest series after each cycle plus one final
/// flushed reading.
std::vector<Series> run(core::IpdEngine& engine,
                        const std::vector<netflow::FlowRecord>& records,
                        const ApplyFn& apply) {
  obs::MetricsRegistry registry;
  engine.observe({.metrics = &registry});
  std::vector<Series> readings;
  const util::Duration t = engine.params().t;
  util::Timestamp next_cycle = util::bucket_start(records.front().ts, t) + t;
  std::size_t begin = 0;
  for (std::size_t i = 0; i <= records.size(); ++i) {
    if (i < records.size() && records[i].ts < next_cycle) continue;
    apply(engine, std::span(records).subspan(begin, i - begin));
    begin = i;
    if (i == records.size()) break;
    while (records[i].ts >= next_cycle) {
      engine.run_cycle(next_cycle);
      readings.push_back(ingest_series(registry));
      next_cycle += t;
    }
  }
  engine.flush_ingest_metrics();
  readings.push_back(ingest_series(registry));
  return readings;
}

const ApplyFn kRecordAtATime = [](core::IpdEngine& engine,
                                  std::span<const netflow::FlowRecord> bin) {
  for (const auto& record : bin) engine.ingest(record);
};

/// Pseudo-random batch sizes (1..600), so buckets range from single rows
/// to well past apply_many's interleaving threshold.
ApplyFn random_batches(util::Rng& rng) {
  return [&rng](core::IpdEngine& engine,
                std::span<const netflow::FlowRecord> bin) {
    std::size_t i = 0;
    while (i < bin.size()) {
      const std::size_t n = std::min<std::size_t>(
          bin.size() - i, static_cast<std::size_t>(rng.range(1, 600)));
      netflow::FlowBatch batch;
      netflow::append_records(batch, bin.subspan(i, n));
      engine.apply_batch(batch);
      i += n;
    }
  };
}

class IngestMetricsParity : public ::testing::TestWithParam<core::CountMode> {
 protected:
  static void SetUpTestSuite() {
    workload::ScenarioConfig scenario = workload::small_test();
    scenario.flows_per_minute = 3000;
    workload::FlowGenerator gen(scenario);
    constexpr util::Timestamp kStart = 18 * util::kSecondsPerHour;
    records_ = new std::vector<netflow::FlowRecord>();
    gen.run(kStart, kStart + 15 * 60, [](const netflow::FlowRecord& r) {
      records_->push_back(r);
    });
    params_ = new core::IpdParams(workload::scaled_params(scenario));
  }

  static void TearDownTestSuite() {
    delete records_;
    delete params_;
    records_ = nullptr;
    params_ = nullptr;
  }

  static std::vector<netflow::FlowRecord>* records_;
  static core::IpdParams* params_;
};

std::vector<netflow::FlowRecord>* IngestMetricsParity::records_ = nullptr;
core::IpdParams* IngestMetricsParity::params_ = nullptr;

TEST_P(IngestMetricsParity, BatchedMatchesRecordAtATime) {
  core::IpdParams params = *params_;
  params.count_mode = GetParam();
  core::IpdEngine oracle_engine(params);
  const std::vector<Series> oracle = run(oracle_engine, *records_, kRecordAtATime);
  // The comparison must not hold vacuously.
  ASSERT_GT(oracle.size(), 10u);
  const Series& total = oracle.back();
  ASSERT_GT(total.at("ipd_ingest_flows_total,family=v4"), 0.0);
  std::size_t link_series = 0;
  for (const auto& [key, value] : total) {
    link_series += key.rfind("ipd_ingest_link_flows_total", 0) == 0 ? 1 : 0;
  }
  ASSERT_GT(link_series, 3u);
  if (params.count_mode == core::CountMode::Bytes) {
    ASSERT_GT(total.at("ipd_ingest_weight_total,family=v4"),
              total.at("ipd_ingest_flows_total,family=v4"));
  }

  for (const int shard_bits : {0, 2, 4}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(1 << shard_bits) +
                   " threads=" + std::to_string(threads));
      core::EngineConfig config;
      config.shard_bits = shard_bits;
      config.ingest_threads = threads;
      core::IpdEngine engine(params, config);
      util::Rng rng(static_cast<std::uint64_t>(7 + shard_bits * 10 + threads));
      const std::vector<Series> batched =
          run(engine, *records_, random_batches(rng));
      ASSERT_EQ(batched.size(), oracle.size());
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        EXPECT_EQ(batched[i], oracle[i]) << "reading " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CountModes, IngestMetricsParity,
                         ::testing::Values(core::CountMode::Flows,
                                           core::CountMode::Bytes),
                         [](const auto& info) {
                           return info.param == core::CountMode::Flows
                                      ? std::string("Flows")
                                      : std::string("Bytes");
                         });

}  // namespace
}  // namespace ipd
