// Concurrency stress for the sharded parallel engine.
//
// Writer threads hammer ingest() and apply_batch() while a reader thread
// polls /ranges-style snapshots (for_each_leaf), lifetime stats and the
// shard-routing surface, and the main thread fires stage-2 cycles — the
// exact overlap the introspection server produces in deployment. The
// assertions here are deliberately coarse (no flow lost, partition stays
// coherent); the point of the test is to give ASan/UBSan and above all
// ThreadSanitizer (-DIPD_SANITIZE=thread) a workload where every lock of
// a sharded IpdEngine is contended from multiple sides at once.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/decision_log.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ipd::core {
namespace {

using net::Family;
using net::IpAddress;
using topology::LinkId;

IpdParams stress_params() {
  IpdParams params;
  params.cidr_max4 = 24;
  params.ncidr_factor4 = 0.002;  // scaled down so splits happen quickly
  params.ncidr_factor6 = 1e-6;
  params.q = 0.8;
  return params;
}

/// Deterministic per-thread traffic: hot /8 blocks pinned to links plus
/// cross-link noise — enough structure that stage 2 classifies and splits
/// while the writers are still running. First octets 0, 43, ..., 215 land
/// in distinct top-nibble shards, so the cut refines into many units and
/// the parallel stage-2 path is the one under stress.
netflow::FlowRecord make_record(util::Rng& rng, util::Timestamp ts) {
  const auto block = static_cast<std::uint32_t>(rng.below(6));
  netflow::FlowRecord record;
  record.ts = ts + static_cast<util::Timestamp>(rng.below(60));
  record.src_ip = IpAddress::v4(((block * 43u) << 24) |
                                static_cast<std::uint32_t>(rng.below(1u << 24)));
  record.ingress = LinkId{block % 3, static_cast<topology::InterfaceIndex>(block % 2)};
  if (rng.chance(0.02)) record.ingress = LinkId{9, 0};
  record.bytes = 64 + rng.below(1400);
  return record;
}

struct StressConfig {
  int writers = 4;
  int records_per_writer = 40000;
  std::size_t batch = 256;
};

void run_stress(IpdEngine& engine, const StressConfig& config) {
  std::atomic<bool> writers_done{false};
  std::atomic<util::Timestamp> sim_now{0};

  // Writers: half of each thread's traffic goes through the per-record
  // path, half through batches, so both lock ladders stay contended.
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(config.writers));
  for (int w = 0; w < config.writers; ++w) {
    writers.emplace_back([&, w] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(w));
      netflow::FlowBatch batch;
      batch.reserve(config.batch);
      for (int i = 0; i < config.records_per_writer; ++i) {
        const util::Timestamp now = sim_now.load(std::memory_order_relaxed);
        const netflow::FlowRecord record = make_record(rng, now);
        if (i % 2 == 0) {
          engine.ingest(record);
        } else {
          batch.push_back(record);
          if (batch.size() >= config.batch) {
            engine.apply_batch(batch);
            batch.clear();
          }
        }
      }
      if (!batch.empty()) engine.apply_batch(batch);
    });
  }

  // Reader: the introspection server's access pattern — full leaf walks,
  // stats scrapes, and shard routing — concurrent with everything else.
  std::atomic<std::uint64_t> snapshots_taken{0};
  std::thread reader([&] {
    util::Rng rng(77);
    while (!writers_done.load(std::memory_order_acquire)) {
      std::size_t leaves = 0, classified = 0;
      engine.for_each_leaf(Family::V4, [&](const RangeNode& leaf) {
        ++leaves;
        if (leaf.state() == RangeNode::State::Classified) {
          ++classified;
          EXPECT_TRUE(leaf.ingress().valid());
        }
      });
      EXPECT_GE(leaves, 1u);
      EXPECT_LE(classified, leaves);
      const EngineStats stats = engine.stats();
      EXPECT_LE(stats.flows_ingested,
                static_cast<std::uint64_t>(config.writers) *
                    static_cast<std::uint64_t>(config.records_per_writer));
      const auto ip =
          IpAddress::v4(static_cast<std::uint32_t>(rng.below(1ull << 32)));
      EXPECT_LT(engine.shard_of(ip), engine.shard_count());
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    }
  });

  // Main thread: stage-2 cycles on a steadily advancing data clock.
  for (int cycle = 0; cycle < 40; ++cycle) {
    const util::Timestamp now =
        sim_now.fetch_add(60, std::memory_order_relaxed) + 60;
    const CycleStats stats = engine.run_cycle(now);
    EXPECT_EQ(stats.ranges_total,
              stats.ranges_classified + stats.ranges_monitoring);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  for (std::thread& t : writers) t.join();
  writers_done.store(true, std::memory_order_release);
  reader.join();

  // Nothing lost: every ingested record is accounted for.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(config.writers) *
      static_cast<std::uint64_t>(config.records_per_writer);
  EXPECT_EQ(engine.stats().flows_ingested, expected);
  EXPECT_GE(snapshots_taken.load(), 1u);

  // Quiesce and verify the V4 partition is still complete and disjoint:
  // each leaf must start exactly where the previous one ended.
  engine.run_cycle(sim_now.load() + 60);
  std::uint64_t expected_start = 0;
  double covered = 0.0;
  engine.for_each_leaf(Family::V4, [&](const RangeNode& leaf) {
    EXPECT_EQ(leaf.prefix().address().v4_value(), expected_start);
    covered += leaf.prefix().address_count();
    expected_start =
        leaf.prefix()
            .address()
            .offset(static_cast<std::uint64_t>(leaf.prefix().address_count()))
            .v4_value();
  });
  EXPECT_DOUBLE_EQ(covered, 4294967296.0);
}

TEST(ShardStress, ConcurrentIngestSnapshotsAndCycles) {
  obs::MetricsRegistry registry;
  DecisionLog decisions(1 << 16);
  CycleDeltaLog deltas(1 << 16);
  EngineConfig config;
  config.shard_bits = 4;
  config.ingest_threads = 4;
  IpdEngine engine(stress_params(), config);
  engine.observe({.metrics = &registry,
                  .decisions = &decisions,
                  .cycle_deltas = &deltas});
  run_stress(engine, StressConfig{});
  // The observability sinks were fed from the stage-2 path throughout.
  EXPECT_GT(registry.family_count(), 0u);
  EXPECT_GT(decisions.total_recorded(), 0u);
}

/// Single-shard, single-thread config: the degenerate pool must behave
/// identically under the same concurrent callers (everything inline).
TEST(ShardStress, DegeneratePoolStillThreadSafe) {
  EngineConfig config;
  config.shard_bits = 0;
  config.ingest_threads = 1;
  IpdEngine engine(stress_params(), config);
  StressConfig stress;
  stress.writers = 2;
  stress.records_per_writer = 15000;
  run_stress(engine, stress);
}

}  // namespace
}  // namespace ipd::core
