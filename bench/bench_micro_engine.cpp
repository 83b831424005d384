// §5.7 microbenchmarks: engine throughput and latency on one core.
// Paper deployment: one 48-core / 500 GB server ingests 4M flow records/s
// on average (6.5M/s peak) across reader processes, with the central IPD
// mapping running single-threaded; stage 2 must complete within each
// 60-second bucket. These benchmarks measure the single-core costs of the
// same code paths: stage-1 ingest, stage-2 cycles, LPM lookups, snapshot
// construction.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include "collector/collector.hpp"
#include "core/decision_log.hpp"
#include "core/engine.hpp"
#include "obs/trace.hpp"
#include "core/lpm_table.hpp"
#include "core/output.hpp"
#include "obs/perf_counters.hpp"
#include "obs/scope.hpp"
#include "netflow/codec.hpp"
#include "netflow/ipfix.hpp"
#include "netflow/v5.hpp"
#include "util/strings.hpp"

using namespace ipd;

namespace {

std::vector<netflow::FlowRecord>& shared_trace() {
  static std::vector<netflow::FlowRecord> trace = [] {
    workload::ScenarioConfig scenario = workload::small_test();
    scenario.flows_per_minute = 50000;
    workload::FlowGenerator gen(scenario);
    std::vector<netflow::FlowRecord> out;
    const util::Timestamp t0 = bench::kDay1 + 20 * util::kSecondsPerHour;
    gen.run(t0, t0 + 10 * 60,
            [&](const netflow::FlowRecord& r) { out.push_back(r); });
    return out;
  }();
  return trace;
}

core::IpdParams micro_params() {
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute = 50000;
  return workload::scaled_params(scenario);
}

/// A warmed engine over the shared trace (for cycle/snapshot benches).
core::IpdEngine& warmed_engine() {
  static core::IpdEngine engine(micro_params());
  static const bool warmed = [] {
    for (const auto& r : shared_trace()) engine.ingest(r);
    for (int i = 1; i <= 10; ++i) {
      engine.run_cycle(bench::kDay1 + 20 * util::kSecondsPerHour + i * 60);
    }
    return true;
  }();
  (void)warmed;
  return engine;
}

void BM_Stage1Ingest(benchmark::State& state) {
  const auto& trace = shared_trace();
  core::IpdEngine engine(micro_params());
  std::size_t i = 0;
  for (auto _ : state) {
    engine.ingest(trace[i]);
    if (++i == trace.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flows/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Stage1Ingest);

/// Same ingest path with a metrics registry attached — the per-flow cost
/// of the observability layer (budget: < 2% of BM_Stage1Ingest).
void BM_Stage1IngestWithMetrics(benchmark::State& state) {
  const auto& trace = shared_trace();
  obs::MetricsRegistry registry;
  core::IpdEngine engine(micro_params());
  engine.observe({.metrics = &registry});
  std::size_t i = 0;
  for (auto _ : state) {
    engine.ingest(trace[i]);
    if (++i == trace.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flows/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Stage1IngestWithMetrics);

/// Ingest with the full observability surface attached — metrics, decision
/// log and flight-recorder tracer. The latter two are stage-2-only, so
/// this must track BM_Stage1IngestWithMetrics within the 3% budget
/// (bench_obs_overhead gates it with a paired CI on apply_batch).
void BM_Stage1IngestFullObservability(benchmark::State& state) {
  const auto& trace = shared_trace();
  obs::MetricsRegistry registry;
  core::DecisionLog decision_log;
  obs::Tracer tracer;
  core::IpdEngine engine(micro_params());
  engine.observe(
      {.metrics = &registry, .decisions = &decision_log, .tracer = &tracer});
  std::size_t i = 0;
  for (auto _ : state) {
    engine.ingest(trace[i]);
    if (++i == trace.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["flows/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Stage1IngestFullObservability);

/// Stage-2 cycle with per-phase timers active.
void BM_Stage2CycleWithMetrics(benchmark::State& state) {
  obs::MetricsRegistry registry;
  core::IpdEngine engine(micro_params());
  engine.observe({.metrics = &registry});
  const auto& trace = shared_trace();
  for (const auto& r : trace) engine.ingest(r);
  util::Timestamp now = bench::kDay1 + 21 * util::kSecondsPerHour;
  std::size_t i = 0;
  for (auto _ : state) {
    for (int k = 0; k < 20000 && i < trace.size(); ++k, ++i) {
      auto r = trace[i];
      r.ts = now;
      engine.ingest(r);
    }
    if (i >= trace.size()) i = 0;
    now += 60;
    const auto stats = engine.run_cycle(now);
    benchmark::DoNotOptimize(stats.ranges_total);
    state.counters["ranges"] = static_cast<double>(stats.ranges_total);
  }
}
BENCHMARK(BM_Stage2CycleWithMetrics)->Unit(benchmark::kMillisecond);

void BM_Stage2Cycle(benchmark::State& state) {
  core::IpdEngine engine(micro_params());
  const auto& trace = shared_trace();
  for (const auto& r : trace) engine.ingest(r);
  util::Timestamp now = bench::kDay1 + 21 * util::kSecondsPerHour;
  std::size_t i = 0;
  for (auto _ : state) {
    // Keep feeding a slice between cycles so the partition stays busy.
    for (int k = 0; k < 20000 && i < trace.size(); ++k, ++i) {
      auto r = trace[i];
      r.ts = now;
      engine.ingest(r);
    }
    if (i >= trace.size()) i = 0;
    now += 60;
    const auto stats = engine.run_cycle(now);
    benchmark::DoNotOptimize(stats.ranges_total);
    state.counters["ranges"] = static_cast<double>(stats.ranges_total);
  }
}
BENCHMARK(BM_Stage2Cycle)->Unit(benchmark::kMillisecond);

void BM_SnapshotBuild(benchmark::State& state) {
  auto& engine = warmed_engine();
  for (auto _ : state) {
    const auto snapshot = core::take_snapshot(engine, bench::kDay1);
    benchmark::DoNotOptimize(snapshot.size());
  }
  state.SetLabel("snapshot of the live partition");
}
BENCHMARK(BM_SnapshotBuild)->Unit(benchmark::kMillisecond);

void BM_LpmTableBuild(benchmark::State& state) {
  auto& engine = warmed_engine();
  const auto snapshot = core::take_snapshot(engine, bench::kDay1);
  for (auto _ : state) {
    const auto table = core::LpmTable::from_snapshot(snapshot);
    benchmark::DoNotOptimize(table.size());
  }
}
BENCHMARK(BM_LpmTableBuild)->Unit(benchmark::kMillisecond);

void BM_LpmLookup(benchmark::State& state) {
  auto& engine = warmed_engine();
  const auto snapshot = core::take_snapshot(engine, bench::kDay1);
  const auto table = core::LpmTable::from_snapshot(snapshot);
  const auto& trace = shared_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(trace[i].src_ip));
    if (++i == trace.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LpmLookup);

void BM_TrieLocate(benchmark::State& state) {
  auto& engine = warmed_engine();
  auto& trie = engine.trie(net::Family::V4);
  const auto& trace = shared_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(&trie.locate(trace[i].src_ip));
    if (++i == trace.size()) i = 0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TrieLocate);

/// Stage-2 walk locality: stream over every leaf touching the per-range
/// aggregates and the per-IP detail tables — the memory-access pattern of
/// the expire/classify passes. With the arena trie this is an index walk
/// through pooled blocks plus one contiguous flat table per leaf; the gate
/// on the derived walk rate guards the layout against regressing to a
/// pointer-chasing form.
void BM_Stage2WalkLocality(benchmark::State& state) {
  auto& engine = warmed_engine();
  const auto& trie = engine.trie(net::Family::V4);
  std::uint64_t leaves = 0;
  for (auto _ : state) {
    double total = 0.0;
    std::size_t ips = 0;
    util::Timestamp newest = 0;
    trie.for_each_leaf([&](const core::RangeNode& leaf) {
      ++leaves;
      total += leaf.counts().total();
      for (const auto& [ip, entry] : leaf.ips()) {
        (void)ip;
        ips += entry.total != 0;
        newest = std::max(newest, entry.last_seen);
      }
    });
    benchmark::DoNotOptimize(total);
    benchmark::DoNotOptimize(ips);
    benchmark::DoNotOptimize(newest);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(leaves));
  state.SetLabel("leaves/s via items");
}
BENCHMARK(BM_Stage2WalkLocality);

void BM_V5Decode(benchmark::State& state) {
  const auto& trace = shared_trace();
  std::vector<netflow::FlowRecord> slice;
  for (const auto& r : trace) {
    if (r.src_ip.is_v4()) slice.push_back(r);
    if (slice.size() == 3000) break;
  }
  std::vector<std::vector<std::uint8_t>> wire;
  for (const auto& packet : netflow::v5::from_flow_records(slice)) {
    wire.push_back(netflow::v5::encode(packet));
  }
  std::size_t i = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    const auto packet = netflow::v5::decode(wire[i]);
    benchmark::DoNotOptimize(packet);
    records += packet->records.size();
    if (++i == wire.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetLabel("flow records/s via items");
}
BENCHMARK(BM_V5Decode);

void BM_IpfixParse(benchmark::State& state) {
  const auto& trace = shared_trace();
  std::vector<netflow::FlowRecord> slice(trace.begin(), trace.begin() + 3000);
  netflow::ipfix::Exporter exporter(1);
  std::vector<std::vector<std::uint8_t>> wire;
  for (std::size_t at = 0; at < slice.size(); at += 100) {
    const auto n = std::min<std::size_t>(100, slice.size() - at);
    for (auto& msg : exporter.export_flows(
             std::span(slice).subspan(at, n), 1000)) {
      wire.push_back(std::move(msg));
    }
  }
  netflow::ipfix::Parser parser;
  std::vector<netflow::FlowRecord> out;
  std::size_t i = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    out.clear();
    parser.parse(wire[i], 1, out);
    records += out.size();
    if (++i == wire.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  state.SetLabel("flow records/s via items");
}
BENCHMARK(BM_IpfixParse);

void BM_CollectorSubmitDatagram(benchmark::State& state) {
  // Full datagram path: decode + ring enqueue (consumer drains inline so
  // the ring never saturates).
  const auto& trace = shared_trace();
  std::vector<netflow::FlowRecord> slice;
  for (const auto& r : trace) {
    if (r.src_ip.is_v4()) slice.push_back(r);
    if (slice.size() == 3000) break;
  }
  std::vector<std::vector<std::uint8_t>> wire;
  for (const auto& packet : netflow::v5::from_flow_records(slice)) {
    wire.push_back(netflow::v5::encode(packet));
  }
  collector::CollectorConfig config;
  config.stat_time.activity_threshold = 1;
  collector::CollectorService service(micro_params(), config, 1);
  service.start();
  std::size_t i = 0;
  std::uint64_t records = 0;
  for (auto _ : state) {
    records += service.submit_datagram(0, 1, wire[i]);
    if (++i == wire.size()) i = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  service.stop();
  state.SetLabel("flow records/s via items");
}
BENCHMARK(BM_CollectorSubmitDatagram);

void BM_CodecRoundTrip(benchmark::State& state) {
  const auto& trace = shared_trace();
  std::vector<netflow::FlowRecord> slice(trace.begin(),
                                         trace.begin() + 10000);
  for (auto _ : state) {
    std::stringstream buf;
    netflow::TraceWriter writer(buf);
    for (const auto& r : slice) writer.write(r);
    netflow::TraceReader reader(buf);
    std::uint64_t n = 0;
    while (reader.read()) ++n;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_CodecRoundTrip)->Unit(benchmark::kMillisecond);

/// Resident set size in bytes (VmRSS from /proc/self/status), 0 if
/// unavailable. Reported alongside the exact accounting so the two can be
/// eyeballed against each other; only the exact numbers are gated.
std::size_t resident_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6))) * 1024;
    }
  }
  return 0;
}

/// Machine-readable trie-layout report for the bench gate: stage-2 walk
/// rate over the warmed partition, exact memory accounting (and its
/// cross-check against an independent per-node walk), and arena shape.
void write_trie_layout_report() {
  auto& engine = warmed_engine();
  auto& trie = engine.trie(net::Family::V4);

  // Best-of-5 timed walks, same access pattern as BM_Stage2WalkLocality.
  std::size_t leaves = 0;
  double best_ns = 0.0;
  for (int round = 0; round < 5; ++round) {
    leaves = 0;
    double total = 0.0;
    std::size_t ips = 0;
    const auto t0 = std::chrono::steady_clock::now();
    trie.for_each_leaf([&](const core::RangeNode& leaf) {
      ++leaves;
      total += leaf.counts().total();
      for (const auto& [ip, entry] : leaf.ips()) {
        (void)ip;
        ips += entry.total != 0;
      }
    });
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(total);
    benchmark::DoNotOptimize(ips);
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    if (round == 0 || ns < best_ns) best_ns = ns;
  }
  const double ns_per_leaf = leaves != 0 ? best_ns / leaves : 0.0;
  const double leaves_per_s = best_ns > 0.0 ? leaves * 1e9 / best_ns : 0.0;
  std::size_t walk_ips = 0;
  trie.for_each_leaf(
      [&](const core::RangeNode& leaf) { walk_ips += leaf.ips().size(); });
  // The walk touches every tracked IP entry once; entries/second is the
  // machine-comparable locality figure (leaves vary with the partition).
  const double ips_per_s = best_ns > 0.0 ? walk_ips * 1e9 / best_ns : 0.0;

  // Exact accounting, cross-checked against an independent per-node sum.
  const std::size_t memory = trie.memory_bytes();
  const std::size_t arena = trie.arena_bytes();
  std::size_t summed = arena;
  std::size_t tracked_ips = 0;
  trie.post_order([&](core::RangeNode& node) {
    summed += node.memory_bytes();
    tracked_ips += node.ips().size();
  });
  const bool exact = summed == memory;
  const std::size_t detail = memory - arena;
  const double bytes_per_ip =
      tracked_ips != 0 ? static_cast<double>(detail) / tracked_ips : 0.0;

  std::printf(
      "stage-2 walk: %zu leaves, %.1f ns/leaf (%.3g leaves/s, %.3g IP "
      "entries/s)\n",
      leaves, ns_per_leaf, leaves_per_s, ips_per_s);
  std::printf(
      "trie memory: %zu B exact (%zu arena + %zu detail), %zu tracked IPs, "
      "%.1f detail B/IP, accounting %s, RSS %zu B\n",
      memory, arena, detail, tracked_ips, bytes_per_ip,
      exact ? "exact" : "MISMATCH", resident_bytes());

  bench::write_json_report(
      "trie_layout",
      util::format(
          "{\"bench\":\"trie_layout\","
          "\"walk\":{\"leaves\":%zu,\"ns_per_leaf\":%.6g,"
          "\"leaves_per_s\":%.6g,\"ip_entries_per_s\":%.6g},"
          "\"memory\":{\"total_bytes\":%zu,\"arena_bytes\":%zu,"
          "\"detail_bytes\":%zu,\"tracked_ips\":%zu,"
          "\"detail_bytes_per_ip\":%.6g,\"accounting_exact\":%d,"
          "\"resident_bytes\":%zu},"
          "\"arena\":{\"nodes\":%zu,\"pool_high_water\":%zu}}",
          leaves, ns_per_leaf, leaves_per_s, ips_per_s, memory, arena, detail,
          tracked_ips, bytes_per_ip, exact ? 1 : 0, resident_bytes(),
          trie.node_count(), trie.pool_high_water()));
}

/// Render one section of the perf-counter report. Counter-derived keys
/// (cycles_per_op, ipc, llc_misses_per_op) appear only when the backing
/// hardware events actually opened, so a perf-less CI container emits a
/// well-formed report without fabricated zeros; bench_check runs with
/// --allow-missing to skip the gates on those keys there.
std::string perf_section_json(const obs::PerfCounters& perf, const char* name,
                              std::uint64_t ops,
                              const obs::PerfPhaseTotals& delta, bool ok) {
  std::string out = util::format("\"%s\":{\"ops\":%llu", name,
                                 static_cast<unsigned long long>(ops));
  if (ok && ops != 0) {
    const double n = static_cast<double>(ops);
    if (perf.event_available(obs::PerfEvent::TaskClock)) {
      out += util::format(
          ",\"task_clock_ns_per_op\":%.6g",
          static_cast<double>(delta[obs::PerfEvent::TaskClock]) / n);
    }
    if (perf.event_available(obs::PerfEvent::Cycles)) {
      out += util::format(
          ",\"cycles_per_op\":%.6g",
          static_cast<double>(delta[obs::PerfEvent::Cycles]) / n);
    }
    if (perf.event_available(obs::PerfEvent::Cycles) &&
        perf.event_available(obs::PerfEvent::Instructions) &&
        delta[obs::PerfEvent::Cycles] != 0) {
      out += util::format(
          ",\"ipc\":%.6g",
          static_cast<double>(delta[obs::PerfEvent::Instructions]) /
              static_cast<double>(delta[obs::PerfEvent::Cycles]));
    }
    if (perf.event_available(obs::PerfEvent::LlcMisses)) {
      out += util::format(
          ",\"llc_misses_per_op\":%.6g",
          static_cast<double>(delta[obs::PerfEvent::LlcMisses]) / n);
    }
  }
  out += "}";
  return out;
}

/// Hardware cost-per-operation report: cycles/flow on the stage-1 ingest
/// path and cycles + LLC misses per LPM lookup, measured with the same
/// perf_event_open groups the engine uses in production. §5.7's deployment
/// budget is stated in machine-independent terms (flows/s on one core);
/// cycles/flow is the figure that transfers across machines.
void write_perf_counter_report() {
  obs::PerfCounters perf;
  const auto& trace = shared_trace();
  // One layer per section: a scope over it charges the section's counter
  // deltas to a perf phase of the same name.
  const obs::Layer ingest_layer("stage1_ingest", 1, nullptr, nullptr, &perf);
  const obs::Layer lookup_layer("lpm_lookup", 1, nullptr, nullptr, &perf);

  // Section 1: stage-1 ingest, per flow. Fresh engine, warmed untimed.
  constexpr int kIngestPasses = 2;
  {
    core::IpdEngine engine(micro_params());
    for (const auto& r : trace) engine.ingest(r);
    const obs::Scope scope(ingest_layer);
    for (int p = 0; p < kIngestPasses; ++p) {
      for (const auto& r : trace) engine.ingest(r);
    }
  }

  // Section 2: LPM lookups over the warmed partition, per lookup.
  constexpr int kLookupPasses = 4;
  {
    auto& engine = warmed_engine();
    const auto snapshot = core::take_snapshot(engine, bench::kDay1);
    const auto table = core::LpmTable::from_snapshot(snapshot);
    std::uint64_t sink = 0;
    for (const auto& r : trace) sink += table.lookup(r.src_ip).has_value();
    {
      const obs::Scope scope(lookup_layer);
      for (int p = 0; p < kLookupPasses; ++p) {
        for (const auto& r : trace) sink += table.lookup(r.src_ip).has_value();
      }
    }
    benchmark::DoNotOptimize(sink);
  }

  // Phases in registration order; a section whose scope could not read
  // the counters charged nothing (scopes == 0).
  const std::vector<obs::PerfPhaseTotals> totals = perf.snapshot();
  const obs::PerfPhaseTotals& ingest_delta = totals.at(0);
  const obs::PerfPhaseTotals& lookup_delta = totals.at(1);
  const bool ingest_ok = ingest_delta.scopes != 0;
  const bool lookup_ok = lookup_delta.scopes != 0;
  const std::uint64_t ingest_ops =
      ingest_ok ? static_cast<std::uint64_t>(trace.size()) * kIngestPasses : 0;
  const std::uint64_t lookup_ops =
      lookup_ok ? static_cast<std::uint64_t>(trace.size()) * kLookupPasses : 0;

  const auto per_op = [](const obs::PerfPhaseTotals& d, obs::PerfEvent e,
                         std::uint64_t ops) {
    return ops != 0 ? static_cast<double>(d[e]) / static_cast<double>(ops)
                    : 0.0;
  };
  std::printf(
      "perf counters: available=%d errno=%d cycles=%d llc=%d\n",
      perf.available() ? 1 : 0, perf.open_errno(),
      perf.event_available(obs::PerfEvent::Cycles) ? 1 : 0,
      perf.event_available(obs::PerfEvent::LlcMisses) ? 1 : 0);
  std::printf(
      "  stage1 ingest: %.1f ns/flow task-clock, %.1f cycles/flow\n",
      per_op(ingest_delta, obs::PerfEvent::TaskClock, ingest_ops),
      per_op(ingest_delta, obs::PerfEvent::Cycles, ingest_ops));
  std::printf(
      "  lpm lookup:    %.1f ns/lookup task-clock, %.1f cycles/lookup, "
      "%.3f LLC misses/lookup\n",
      per_op(lookup_delta, obs::PerfEvent::TaskClock, lookup_ops),
      per_op(lookup_delta, obs::PerfEvent::Cycles, lookup_ops),
      per_op(lookup_delta, obs::PerfEvent::LlcMisses, lookup_ops));

  bench::write_json_report(
      "micro_engine",
      util::format(
          "{\"bench\":\"micro_engine\",\"perf_available\":%s,"
          "\"open_errno\":%d,"
          "\"events\":{\"task_clock\":%s,\"cycles\":%s,\"instructions\":%s,"
          "\"llc_misses\":%s},"
          "\"sections\":{%s,%s}}",
          perf.available() ? "true" : "false", perf.open_errno(),
          perf.event_available(obs::PerfEvent::TaskClock) ? "true" : "false",
          perf.event_available(obs::PerfEvent::Cycles) ? "true" : "false",
          perf.event_available(obs::PerfEvent::Instructions) ? "true"
                                                             : "false",
          perf.event_available(obs::PerfEvent::LlcMisses) ? "true" : "false",
          perf_section_json(perf, "stage1_ingest", ingest_ops, ingest_delta,
                            ingest_ok)
              .c_str(),
          perf_section_json(perf, "lpm_lookup", lookup_ops, lookup_delta,
                            lookup_ok)
              .c_str()));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_trie_layout_report();
  write_perf_counter_report();
  return 0;
}
