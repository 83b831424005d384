#include "collector/collector.hpp"
#include "collector/spsc_ring.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <string>
#include <thread>

#include "core/output.hpp"
#include "obs/metrics.hpp"
#include "stat_time_reference.hpp"
#include "util/rng.hpp"

namespace ipd::collector {
namespace {

TEST(SpscRing, PushPopOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(i));
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.try_pop(out));
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FullRingRejects) {
  SpscRing<int> ring(4);  // free-running indices: all slots usable
  std::size_t pushed = 0;
  while (ring.try_push(1)) ++pushed;
  EXPECT_EQ(pushed, ring.capacity());
  int out;
  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_TRUE(ring.try_push(2));  // space freed
}

TEST(SpscRing, CapacityRoundsUp) {
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);  // rounded up; every slot usable
  EXPECT_THROW(SpscRing<int>(1), std::invalid_argument);
}

TEST(SpscRing, ConsumeBatch) {
  SpscRing<int> ring(16);
  for (int i = 0; i < 10; ++i) ring.try_push(i);
  int sum = 0;
  EXPECT_EQ(ring.consume([&sum](int& v) { sum += v; }, 4), 4u);
  EXPECT_EQ(sum, 0 + 1 + 2 + 3);
  EXPECT_EQ(ring.consume([&sum](int& v) { sum += v; }, 100), 6u);
}

TEST(SpscRing, ConcurrentProducerConsumer) {
  SpscRing<std::uint64_t> ring(1024);
  constexpr std::uint64_t kN = 200000;
  std::uint64_t sum_consumed = 0, n_consumed = 0;
  std::thread consumer([&] {
    std::uint64_t v;
    while (n_consumed < kN) {
      if (ring.try_pop(v)) {
        sum_consumed += v;
        ++n_consumed;
      }
    }
  });
  for (std::uint64_t i = 1; i <= kN; ++i) {
    while (!ring.try_push(i)) {
    }
  }
  consumer.join();
  EXPECT_EQ(n_consumed, kN);
  EXPECT_EQ(sum_consumed, kN * (kN + 1) / 2);
}

core::IpdParams tiny_params() {
  core::IpdParams params;
  params.ncidr_factor4 = 0.001;
  params.ncidr_factor6 = 1e-7;
  return params;
}

std::vector<netflow::FlowRecord> make_flows(util::Timestamp ts, int n,
                                            topology::LinkId link,
                                            std::uint32_t base) {
  std::vector<netflow::FlowRecord> flows(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& f = flows[static_cast<std::size_t>(i)];
    f.ts = ts + i % 60;
    f.src_ip = net::IpAddress::v4(base + (static_cast<std::uint32_t>(i) << 8));
    f.ingress = link;
  }
  return flows;
}

TEST(Collector, EndToEndViaDatagrams) {
  CollectorConfig config;
  config.stat_time.activity_threshold = 1;
  // The two source rings drain at whatever relative pace the scheduler
  // allows; under sanitizers one ring can lag the watermark by minutes of
  // data-time. Skew filtering has its own tests — here it must not eat
  // records, so allow the full span of the trace.
  config.stat_time.max_skew = 3600;
  CollectorService service(tiny_params(), config, /*n_sources=*/2);

  // Router 5 exports traffic of 10/8 on interface 2, router 9 exports
  // 20/8 traffic on interface 0 — as v5 datagrams over two sources. Both
  // sources are queued before the IPD thread starts: fed live, source 1's
  // minute could arrive after the IPD thread had already cycled over
  // source 0's data for it, which makes the final table depend on thread
  // scheduling. Every datagram must be accepted whole (no ring refusal).
  for (int minute = 0; minute < 8; ++minute) {
    const util::Timestamp ts = 1000000 + minute * 60;
    auto flows_a = make_flows(ts, 60, {5, 2}, 0x0A000000u);
    auto flows_b = make_flows(ts, 60, {9, 0}, 0x14000000u);
    for (auto& packet : netflow::v5::from_flow_records(flows_a)) {
      packet.header.unix_secs = static_cast<std::uint32_t>(ts);
      const auto bytes = netflow::v5::encode(packet);
      ASSERT_EQ(service.submit_datagram(0, 5, bytes), packet.records.size());
    }
    for (auto& packet : netflow::v5::from_flow_records(flows_b)) {
      packet.header.unix_secs = static_cast<std::uint32_t>(ts);
      const auto bytes = netflow::v5::encode(packet);
      ASSERT_EQ(service.submit_datagram(1, 9, bytes), packet.records.size());
    }
  }
  service.start();
  service.stop();

  const auto stats = service.stats();
  EXPECT_EQ(stats.datagrams_malformed, 0u);
  EXPECT_GT(stats.flows_ingested, 800u);
  EXPECT_GT(stats.cycles_run, 5u);
  EXPECT_GE(stats.snapshots_published, 1u);

  const auto table = service.current_table();
  ASSERT_NE(table, nullptr);
  const auto hit_a = table->lookup(net::IpAddress::from_string("10.1.2.3"));
  ASSERT_TRUE(hit_a.has_value());
  EXPECT_TRUE(hit_a->matches(topology::LinkId{5, 2}));
  const auto hit_b = table->lookup(net::IpAddress::from_string("20.1.2.3"));
  ASSERT_TRUE(hit_b.has_value());
  EXPECT_TRUE(hit_b->matches(topology::LinkId{9, 0}));
}

TEST(Collector, StopRunsTheCyclesDueBeforeItsFinalPublish) {
  // Every record predates the first cycle boundary (t = 60 s), so no
  // record ever crosses a boundary: only stop() can run the cycles at
  // 1000020, 1000080, 1000140 and 1000200 that precede its publish at the
  // 1000200 snapshot boundary.
  CollectorConfig config;
  config.stat_time.activity_threshold = 1;
  CollectorService service(tiny_params(), config, 1);
  std::vector<netflow::FlowRecord> flows(200);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].ts = 1000000 + static_cast<util::Timestamp>(i % 20);
    flows[i].src_ip =
        net::IpAddress::v4(0x0A000000u + (static_cast<std::uint32_t>(i) << 8));
    flows[i].ingress = {5, 2};
  }
  for (const auto& packet : netflow::v5::from_flow_records(flows)) {
    ASSERT_EQ(service.submit_datagram(0, 5, netflow::v5::encode(packet)),
              packet.records.size());
  }
  service.start();
  service.stop();

  EXPECT_EQ(service.stats().flows_ingested, flows.size());
  EXPECT_EQ(service.stats().cycles_run, 4u);
  EXPECT_EQ(service.stats().snapshots_published, 1u);
  const auto hit =
      service.current_table()->lookup(net::IpAddress::from_string("10.0.3.1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->matches(topology::LinkId{5, 2}));
}

TEST(Collector, IpfixDatagramsAutoDetected) {
  CollectorConfig config;
  config.stat_time.activity_threshold = 1;
  CollectorService service(tiny_params(), config, 1);
  service.start();

  netflow::ipfix::Exporter exporter(/*observation_domain=*/7);
  for (int minute = 0; minute < 6; ++minute) {
    const util::Timestamp ts = 5000000 + minute * 60;
    const auto flows = make_flows(ts, 80, {4, 1}, 0x0A000000u);
    for (const auto& msg : exporter.export_flows(
             flows, static_cast<std::uint32_t>(ts))) {
      service.submit_datagram(0, 4, msg);
    }
  }
  service.stop();

  EXPECT_EQ(service.stats().datagrams_malformed, 0u);
  EXPECT_GT(service.stats().flows_ingested, 400u);
  const auto hit =
      service.current_table()->lookup(net::IpAddress::from_string("10.0.9.9"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->matches(topology::LinkId{4, 1}));
}

TEST(Collector, MalformedDatagramsAreCountedNotFatal) {
  CollectorService service(tiny_params(), CollectorConfig{}, 1);
  const std::vector<std::uint8_t> garbage{1, 2, 3, 4, 5};
  EXPECT_EQ(service.submit_datagram(0, 1, garbage), 0u);
  EXPECT_EQ(service.stats().datagrams_malformed, 1u);
}

TEST(Collector, RingOverflowCountsDrops) {
  CollectorConfig config;
  config.ring_capacity = 16;
  CollectorService service(tiny_params(), config, 1);
  // Not started: nothing drains the ring, so most of this must drop.
  const auto flows = make_flows(1000, 500, {1, 0}, 0x0A000000u);
  const std::size_t accepted = service.submit_records(0, flows);
  EXPECT_LT(accepted, flows.size());
  EXPECT_EQ(service.stats().flows_dropped_ring, flows.size() - accepted);
}

TEST(Collector, RingResidencyObservesEveryDrainedFlow) {
  // Residency is observed once per drained batch, weighted by its record
  // count: the histogram still counts every flow exactly once.
  obs::MetricsRegistry registry;
  CollectorConfig config;
  config.metrics = &registry;
  config.stat_time.activity_threshold = 1;
  CollectorService service(tiny_params(), config, 2);
  service.start();
  std::size_t submitted = 0;
  for (int round = 0; round < 5; ++round) {
    const auto flows = make_flows(1000 + round * 60, 97, {1, 0}, 0x0A000000u);
    submitted += service.submit_records(0, flows);
    submitted += service.submit_records(1, flows);
  }
  service.stop();
  ASSERT_GT(submitted, 0u);
  EXPECT_EQ(service.stats().flows_enqueued, submitted);
  std::uint64_t residency_count = 0;
  for (const auto& family : registry.collect()) {
    if (family.name != "ipd_ring_residency_seconds") continue;
    for (const auto& sample : family.samples) residency_count += sample.count;
  }
  EXPECT_EQ(residency_count, submitted);
}

TEST(Collector, ConcurrentSourcesStress) {
  CollectorConfig config;
  config.stat_time.activity_threshold = 1;
  // Producers are free-running threads: a late-scheduled source may submit
  // its first minutes after the watermark (driven by the other sources) has
  // moved past max_skew, and the skew filter would then drop them by
  // design. Widen the window past the trace span so scheduling cannot cause
  // drops — which makes the accounting below exact instead of approximate.
  config.stat_time.max_skew = 3600;
  constexpr std::size_t kSources = 4;
  CollectorService service(tiny_params(), config, kSources);
  service.start();

  std::vector<std::thread> producers;
  std::atomic<std::uint64_t> total_accepted{0};
  for (std::size_t s = 0; s < kSources; ++s) {
    producers.emplace_back([&, s] {
      for (int minute = 0; minute < 6; ++minute) {
        const util::Timestamp ts = 2000000 + minute * 60;
        const auto flows =
            make_flows(ts, 300, {static_cast<topology::RouterId>(s), 0},
                       0x0A000000u + static_cast<std::uint32_t>(s) * 0x01000000u);
        std::size_t accepted = 0;
        // Producers retry on ring pressure (bounded).
        for (int attempt = 0; attempt < 100 && accepted < flows.size(); ++attempt) {
          accepted += service.submit_records(
              s, std::span(flows).subspan(accepted));
        }
        total_accepted.fetch_add(accepted);
      }
    });
  }
  for (auto& t : producers) t.join();
  service.stop();

  // Every record accepted into a ring must reach the engine: nothing may be
  // lost between ring, statistical time, and the batched engine feed.
  EXPECT_EQ(service.stats().flows_ingested, total_accepted.load());
  EXPECT_EQ(service.stats().flows_enqueued, total_accepted.load());
  EXPECT_GE(service.stats().snapshots_published, 1u);
}

TEST(Collector, LookupsDuringPublishes) {
  // Lookup threads read through current_table() while the IPD thread
  // publishes a table every minute of data time. Each reader holds the
  // shared_ptr across its lookups, as the handles require.
  CollectorConfig config;
  config.stat_time.activity_threshold = 1;
  config.snapshot_len = 60;
  CollectorService service(tiny_params(), config, 1);
  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<std::uint64_t> hits{0}, wrong{0}, tables_seen{0};
  const std::vector<net::IpAddress> probes{
      net::IpAddress::from_string("10.0.1.0"),
      net::IpAddress::from_string("10.0.200.7"),
      net::IpAddress::from_string("11.0.0.1"),
      net::IpAddress::from_string("2a00::1")};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::shared_ptr<const core::LpmTable> seen;
      bool first = true;
      while (true) {
        // One more full round after stop, so every reader also reads the
        // final table.
        const bool last_round = stop.load();
        const auto table = service.current_table();
        if (table != seen) {
          tables_seen.fetch_add(1);
          seen = table;
        }
        if (first) {
          started.fetch_add(1);
          first = false;
        }
        for (const auto& ip : probes) {
          const auto hit = table->lookup(ip);
          if (!hit) continue;
          hits.fetch_add(1);
          if (!hit->matches(topology::LinkId{5, 2}) || hit->ifaces.size() != 1) {
            wrong.fetch_add(1);
          }
        }
        if (last_round) break;
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();
  service.start();
  for (int minute = 0; minute < 20; ++minute) {
    const util::Timestamp ts = 4000000 + minute * 60;
    const auto flows = make_flows(ts, 120, {5, 2}, 0x0A000000u);
    std::size_t accepted = 0;
    for (int attempt = 0; attempt < 1000 && accepted < flows.size(); ++attempt) {
      accepted += service.submit_records(0, std::span(flows).subspan(accepted));
      if (accepted < flows.size()) std::this_thread::yield();
    }
  }
  service.stop();
  stop.store(true);
  for (auto& t : readers) t.join();

  EXPECT_GE(service.stats().snapshots_published, 10u);
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  // At least the empty initial table and the final one, per reader.
  EXPECT_GE(tables_seen.load(), 2u * kReaders);
}

TEST(Collector, RejectsZeroSources) {
  EXPECT_THROW(CollectorService(tiny_params(), CollectorConfig{}, 0),
               std::invalid_argument);
}

TEST(Collector, StatisticalTimeFiltersBrokenClocks) {
  CollectorConfig config;
  config.stat_time.activity_threshold = 1;
  config.stat_time.max_skew = 120;
  CollectorService service(tiny_params(), config, 1);
  service.start();
  auto flows = make_flows(3000000, 200, {1, 0}, 0x0A000000u);
  // One record with a wildly wrong clock.
  flows[50].ts = 3000000 + 86400;
  service.submit_records(0, flows);
  service.stop();
  EXPECT_EQ(service.stats().flows_ingested, flows.size() - 1);
}

// ---------------------------------------------------------------------------
// CollectorService against a record-wise driver. The driver takes the same
// datagrams in the order the collector drains them (round robin, up to
// drain_batch records per source per round) and feeds them one record at a
// time through the record-wise statistical time and the collector's
// boundary rule into its own IpdEngine: a row that reaches the next cycle
// or snapshot boundary is applied before the boundary fires, and pending
// rows are applied every engine_batch records.

class RecordWiseCollector {
 public:
  RecordWiseCollector(const core::IpdParams& params,
                      const CollectorConfig& config)
      : config_(config),
        engine_(params, core::EngineConfig{}),
        stat_time_(stat_time_config(config, params),
                   [this](const std::vector<netflow::FlowRecord>& bucket) {
                     for (const netflow::FlowRecord& r : bucket) ingest(r);
                   }) {}

  void offer(const netflow::FlowBatch& batch) {
    for (std::size_t k = 0; k < batch.size(); ++k) {
      stat_time_.offer(batch.record(k));
    }
  }

  // What stop() does once the rings are empty.
  void finish() {
    stat_time_.flush();
    apply_pending();
    if (!clock_started_) return;
    run_cycles_through(next_snapshot_);
    publish(next_snapshot_);
  }

  const core::IpdEngine& engine() const { return engine_; }
  const core::Snapshot& snapshot() const { return snapshot_; }
  std::uint64_t snapshots() const { return snapshots_; }

 private:
  static netflow::StatisticalTimeConfig stat_time_config(
      const CollectorConfig& config, const core::IpdParams& params) {
    netflow::StatisticalTimeConfig st = config.stat_time;
    st.bucket_len = params.t;
    return st;
  }

  void ingest(const netflow::FlowRecord& record) {
    pending_.push_back(record);
    const util::Duration t = engine_.params().t;
    if (!clock_started_) {
      next_cycle_ = util::bucket_start(record.ts, t) + t;
      next_snapshot_ = util::bucket_start(record.ts, config_.snapshot_len) +
                       config_.snapshot_len;
      clock_started_ = true;
    }
    if (record.ts >= next_cycle_ || record.ts >= next_snapshot_) {
      apply_pending();
      run_cycles_through(record.ts);
      while (record.ts >= next_snapshot_) {
        publish(next_snapshot_);
        next_snapshot_ += config_.snapshot_len;
      }
    } else if (pending_.size() >= config_.engine_batch) {
      apply_pending();
    }
  }

  void apply_pending() {
    if (pending_.empty()) return;
    engine_.apply_batch(pending_);
    pending_.clear();
  }

  void run_cycles_through(util::Timestamp ts) {
    while (next_cycle_ <= ts) {
      engine_.run_cycle(next_cycle_);
      next_cycle_ += engine_.params().t;
    }
  }

  void publish(util::Timestamp ts) {
    snapshot_ = core::take_snapshot(engine_, ts);
    ++snapshots_;
  }

  CollectorConfig config_;
  core::IpdEngine engine_;
  netflow::reference::RecordWiseStatTime stat_time_;
  netflow::FlowBatch pending_;
  core::Snapshot snapshot_;
  std::uint64_t snapshots_ = 0;
  util::Timestamp next_cycle_ = 0;
  util::Timestamp next_snapshot_ = 0;
  bool clock_started_ = false;
};

std::string format_snapshot(const core::Snapshot& snapshot) {
  std::string out;
  for (const auto& row : snapshot) {
    out += core::format_row(row);
    out += '\n';
  }
  return out;
}

TEST(CollectorDifferential, MatchesARecordWiseDriver) {
  CollectorConfig config;
  config.snapshot_len = 90;  // with t = 60, every other boundary is mid-bucket
  config.engine_batch = 7;
  config.stat_time.activity_threshold = 10;
  const core::IpdParams params = tiny_params();
  ASSERT_EQ(params.t, 60);
  CollectorService service(params, config, /*n_sources=*/2);

  // Source 0 exports v5 from router 5, source 1 IPFIX (v4 and v6) from
  // router 9. Some datagrams and records carry broken clocks (hours off,
  // dropped as implausible) or run late (inside the skew window, often
  // below the seal bound). Everything is queued before start(), so the
  // collector's drain order is fixed.
  util::Rng rng(77);
  std::vector<std::vector<std::vector<std::uint8_t>>> datagrams(2);
  netflow::ipfix::Exporter exporter(/*observation_domain=*/3);
  for (int minute = 0; minute < 14; ++minute) {
    const util::Timestamp ts = 1000020 + minute * 60;
    for (auto& packet : netflow::v5::from_flow_records(
             make_flows(ts, 90, {5, 2}, 0x0A000000u))) {
      util::Timestamp sent = ts + rng.range(0, 59);
      if (rng.chance(0.08)) sent += 7200;
      if (rng.chance(0.15)) sent -= rng.range(60, 250);
      packet.header.unix_secs = static_cast<std::uint32_t>(sent);
      datagrams[0].push_back(netflow::v5::encode(packet));
    }
    auto flows = make_flows(ts, 90, {9, 0}, 0x14000000u);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (i % 3 == 0) {
        flows[i].src_ip = net::IpAddress::v6(
            0x2a00000000000000ull | (static_cast<std::uint64_t>(i) << 32), 1);
      }
      if (rng.chance(0.05)) flows[i].ts -= 86400;
      if (rng.chance(0.1)) flows[i].ts -= rng.range(60, 280);
    }
    for (auto& msg : exporter.export_flows(flows,
                                           static_cast<std::uint32_t>(ts))) {
      datagrams[1].push_back(std::move(msg));
    }
  }

  // The driver decodes what each source's reader decodes.
  std::vector<std::deque<netflow::FlowBatch>> queued(2);
  netflow::ipfix::Parser parser;
  for (std::size_t source = 0; source < 2; ++source) {
    const topology::RouterId router = source == 0 ? 5 : 9;
    for (const auto& bytes : datagrams[source]) {
      netflow::FlowBatch batch;
      const bool ok = source == 0
                          ? netflow::v5::decode_batch(bytes, router, batch)
                                .has_value()
                          : parser.parse_batch(bytes, router, batch);
      ASSERT_TRUE(ok);
      if (batch.empty()) continue;
      ASSERT_EQ(service.submit_datagram(source, router, bytes), batch.size());
      queued[source].push_back(std::move(batch));
    }
  }
  service.start();
  service.stop();

  RecordWiseCollector driver(params, config);
  for (bool any = true; any;) {
    any = false;
    for (auto& q : queued) {
      for (std::size_t drained = 0;
           drained < config.drain_batch && !q.empty();) {
        driver.offer(q.front());
        drained += q.front().size();
        q.pop_front();
        any = true;
      }
    }
  }
  driver.finish();

  // Publishing reads the engine without changing it, so an intermediate
  // table shows only in the publish count; the final table and the
  // engine's stage-2 counters carry everything else.
  const CollectorStats stats = service.stats();
  const core::EngineStats& got = service.engine().stats();
  const core::EngineStats& want = driver.engine().stats();
  EXPECT_EQ(stats.flows_ingested, want.flows_ingested);
  EXPECT_EQ(stats.cycles_run, want.cycles_run);
  EXPECT_EQ(stats.snapshots_published, driver.snapshots());
  EXPECT_EQ(format_snapshot(service.latest_snapshot()),
            format_snapshot(driver.snapshot()));
  EXPECT_EQ(got.total_classifications, want.total_classifications);
  EXPECT_EQ(got.total_splits, want.total_splits);
  EXPECT_EQ(got.total_joins, want.total_joins);
  EXPECT_EQ(got.total_drops, want.total_drops);
  // The trace exercised what it is meant to: filtered rows, several
  // publishes and a non-trivial final table.
  EXPECT_LT(stats.flows_ingested, stats.flows_enqueued);
  EXPECT_GT(stats.snapshots_published, 5u);
  EXPECT_GT(driver.snapshot().size(), 1u);
}

// ---------------------------------------------------------------------------
// Batch ownership: a reader decodes into a batch the IPD thread handed back
// (or a new one), and the service frees whatever is still queued.

TEST(CollectorBatches, PartialAdmissionKeepsThePrefixIntact) {
  CollectorConfig config;
  config.ring_capacity = 256;
  config.stat_time.activity_threshold = 1;
  CollectorService service(tiny_params(), config, 1);
  // Not started: the first 256 records fill the budget, the rest drop. The
  // prefix comes from link {1, 0}, the tail from link {2, 0}.
  auto flows = make_flows(1000000, 400, {1, 0}, 0x0A000000u);
  for (std::size_t i = 256; i < flows.size(); ++i) flows[i].ingress = {2, 0};
  ASSERT_EQ(service.submit_records(0, flows), 256u);
  EXPECT_EQ(service.stats().flows_dropped_ring, 144u);
  service.start();
  service.stop();
  // Exactly the prefix reached the engine.
  EXPECT_EQ(service.stats().flows_ingested, 256u);
  bool saw_prefix = false;
  for (const auto& row : service.latest_snapshot()) {
    for (const auto& [link, count] : row.breakdown) {
      EXPECT_NE(link, (topology::LinkId{2, 0})) << "a dropped row was ingested";
      saw_prefix |= link == topology::LinkId{1, 0} && count > 0;
    }
  }
  EXPECT_TRUE(saw_prefix);
}

TEST(CollectorBatches, ResubmittedTailIsCountedOnceAsRefusedAndIngestedOnce) {
  obs::MetricsRegistry registry;
  CollectorConfig config;
  config.ring_capacity = 256;
  config.metrics = &registry;
  config.stat_time.activity_threshold = 1;
  CollectorService service(tiny_params(), config, 1);
  // Not started: the first 256 records fill the budget and the ring
  // refuses the 144-record tail, which the reader keeps.
  auto flows = make_flows(1000000, 400, {1, 0}, 0x0A000000u);
  for (std::size_t i = 256; i < flows.size(); ++i) flows[i].ingress = {2, 0};
  const std::span<const netflow::FlowRecord> all(flows);
  ASSERT_EQ(service.submit_records(0, all), 256u);
  EXPECT_EQ(service.stats().flows_dropped_ring, 144u);

  // Start the IPD thread and wait until it has dequeued the prefix; the
  // budget frees a moment later, so the reader retries the tail until the
  // ring takes it. A retry the ring refuses again is a second refusal of
  // those records, and is counted as one.
  service.start();
  const obs::Histogram& residency =
      registry.histogram("ipd_ring_residency_seconds", "", {});
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (residency.count() < 256) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::yield();
  }
  std::uint64_t refused_again = 0;
  for (std::span<const netflow::FlowRecord> tail = all.subspan(256);
       !tail.empty();) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    const std::size_t accepted = service.submit_records(0, tail);
    refused_again += tail.size() - accepted;
    tail = tail.subspan(accepted);
  }
  service.stop();

  // Every record ingested exactly once; the refusals counted as refusals.
  const CollectorStats stats = service.stats();
  EXPECT_EQ(stats.flows_dropped_ring, 144u + refused_again);
  EXPECT_EQ(stats.flows_enqueued, 400u);
  EXPECT_EQ(stats.flows_ingested, 400u);
  EXPECT_EQ(service.engine().stats().flows_ingested, 400u);
  EXPECT_EQ(registry
                .counter("ipd_ring_dropped_total", "", {{"source", "0"}})
                .value(),
            144u + refused_again);
}

TEST(CollectorBatches, MalformedDatagramLeavesNoRowsBehind) {
  CollectorConfig config;
  config.stat_time.activity_threshold = 1;
  CollectorService service(tiny_params(), config, 1);
  netflow::ipfix::Exporter exporter(/*observation_domain=*/1);
  const auto good = exporter.export_flows(
      make_flows(2000000, 20, {2, 0}, 0x0A000000u), 2000000);
  ASSERT_EQ(good.size(), 1u);
  // A message whose data set decodes before a broken set is found: the
  // reader's batch is half filled when the parse fails.
  std::vector<std::uint8_t> broken = good.front();
  broken.insert(broken.end(), {0x01, 0x00, 0x00, 0x02});  // set length 2
  const auto length = static_cast<std::uint16_t>(broken.size());
  broken[2] = static_cast<std::uint8_t>(length >> 8);
  broken[3] = static_cast<std::uint8_t>(length & 0xff);
  EXPECT_EQ(service.submit_datagram(0, 2, broken), 0u);
  EXPECT_EQ(service.stats().datagrams_malformed, 1u);
  // The same batch is reused: the next datagram's rows come alone.
  const auto next = exporter.export_flows(
      make_flows(2000000, 5, {2, 0}, 0x0B000000u), 2000000);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(service.submit_datagram(0, 2, next.front()), 5u);
  service.start();
  service.stop();
  EXPECT_EQ(service.stats().flows_ingested, 5u);
}

TEST(CollectorBatches, StopAndDestructionFreeQueuedBatches) {
  // Leaks or double frees here show under the address sanitizer.
  CollectorConfig config;
  config.stat_time.activity_threshold = 1;
  {
    // Never started: batches stay in the forward ring until destruction.
    CollectorService service(tiny_params(), config, 2);
    EXPECT_EQ(service.submit_records(
                  0, make_flows(1000000, 50, {1, 0}, 0x0A000000u)),
              50u);
    EXPECT_EQ(service.submit_records(
                  1, make_flows(1000000, 50, {2, 0}, 0x0B000000u)),
              50u);
  }
  {
    // Started and stopped: drained batches wait in the return rings, and
    // batches submitted after stop() wait in the forward rings.
    CollectorService service(tiny_params(), config, 2);
    for (int i = 0; i < 20; ++i) {
      service.submit_records(
          static_cast<std::size_t>(i % 2),
          make_flows(1000000 + i, 10, {1, 0}, 0x0A000000u));
    }
    service.start();
    service.stop();
    EXPECT_EQ(service.stats().flows_ingested, 200u);
    for (int i = 0; i < 6; ++i) {
      service.submit_records(
          static_cast<std::size_t>(i % 2),
          make_flows(1000000 + i, 10, {1, 0}, 0x0A000000u));
    }
  }
}

}  // namespace
}  // namespace ipd::collector
