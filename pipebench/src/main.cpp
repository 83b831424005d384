// ipd_pipebench: the IPD pipeline benchmark.
//
//   ipd_pipebench --workload <collector_zipf|sharded_churn|lookup_mixed>
//                 --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// --trace 0 runs live rounds through CollectorService until --seconds have
// passed and prints the end-to-end metrics. --trace 1 runs one live round
// with the feeder's own layer timing, then a traced and an untraced replay
// of the same input, and prints the per-layer metrics. Either way the last
// stdout line is one JSON object {correct, attempted, failed, metrics};
// when an output check fails the metrics are withheld and the exit code is
// non-zero.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "runs.hpp"

namespace pipebench {
namespace {

// Rounds stop gathering samples after this long, so a run ends well within
// its 180 s limit even on a slow host.
constexpr double kMaxMeasureS = 120.0;
// Medians over fewer rounds follow single host hiccups too closely.
constexpr std::size_t kMinRounds = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val);
    else if (key == "--out-dir") a.out_dir = val;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return 1;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    o << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
      << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

// Output checks; each failure is reported on stderr.
struct Checks {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct SpanTotals {
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::uint64_t count = 0;
};

std::map<std::string, SpanTotals> span_totals(const std::vector<Span>& spans,
                                              double* busy_ns) {
  std::map<std::string, SpanTotals> out;
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  *busy_ns = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double d = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    auto& t = out[spans[i].name];
    t.total_ns += d;
    t.self_ns += d - child_ns[i];
    ++t.count;
    if (spans[i].parent < 0) *busy_ns += d;
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream f(path);
  f << "index,name,start_ns,end_ns,parent\n";
  const std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    f << i << ',' << spans[i].name << ',' << spans[i].start_ns - base << ','
      << spans[i].end_ns - base << ',' << spans[i].parent << '\n';
  }
}

int run(const Args& args) {
  const int nproc = online_cpus();
  const Spec spec = make_spec(args.workload, nproc);
  const Conditions cond = probe_conditions(spec, args.seed, nproc);
  Checks checks;
  checks.expect(cond.total_threads() <= nproc,
                "threads " + std::to_string(cond.total_threads()) +
                    " exceed nproc " + std::to_string(nproc));

  const Input in = make_input(spec, args.seed);
  std::uint64_t window_flows = 0;
  for (const auto& s : in.window) window_flows += s.flows;
  std::fprintf(stderr,
               "pipebench: %s seed %llu: %zu producers, %llu window flows, "
               "input made in %.2f s\n",
               spec.name.c_str(), static_cast<unsigned long long>(args.seed),
               in.window.size(), static_cast<unsigned long long>(window_flows),
               in.generate_s);

  Metrics m;
  std::uint64_t attempted = 0, failed = 0;
  double engine_mem_mb = 0.0;

  if (args.trace == 0) {
    std::vector<RoundResult> rounds;
    std::vector<double> lags;
    const std::int64_t t_start = now_ns();
    while (true) {
      rounds.push_back(run_round(in, false, rounds.empty()));
      const RoundResult& rr = rounds.back();
      std::fprintf(stderr,
                   "pipebench: round %zu: setup %.3f s, window %.3f s, %.0f "
                   "flows/s, reader %.1f ns/flow, %zu lag samples\n",
                   rounds.size(), rr.setup_s, rr.window_s,
                   ratio(static_cast<double>(rr.window_flows), rr.window_s),
                   ratio(static_cast<double>(rr.producer_cpu_ns),
                         static_cast<double>(rr.window_flows)),
                   rr.publish_lag_ms.size());
      if (!rr.error.empty()) {
        checks.expect(false, "round " + std::to_string(rounds.size()) + ": " + rr.error);
        break;
      }
      lags.insert(lags.end(), rr.publish_lag_ms.begin(), rr.publish_lag_ms.end());
      const double elapsed = static_cast<double>(now_ns() - t_start) * 1e-9;
      if (elapsed >= args.seconds && rounds.size() >= kMinRounds &&
          lags.size() >= 20) {
        break;
      }
      if (elapsed >= kMaxMeasureS) {
        checks.expect(false, "rounds did not gather enough samples");
        break;
      }
    }
    // Per-round values, reported as their median over the rounds; lookup
    // percentiles come from each round's own >= 1000 blocks.
    std::vector<double> setup, rate, lookup_rate, lookup_p50, lookup_p99;
    std::uint64_t offered = 0, ingested = 0, checked = 0, correct = 0;
    std::uint64_t window_flows_all = 0;
    double producer_cpu_ns = 0.0;
    std::uint64_t malformed = 0, waits = 0;
    for (const auto& rr : rounds) {
      checks.expect(rr.lookup_block_ns.size() >= 1000,
                    "fewer than 1000 lookup blocks in a round");
      lookup_rate.push_back(ratio(static_cast<double>(rr.lookups), rr.lookup_window_s));
      lookup_p50.push_back(quantile(rr.lookup_block_ns, 0.5));
      lookup_p99.push_back(quantile(rr.lookup_block_ns, 0.99));
      setup.push_back(rr.setup_s);
      rate.push_back(ratio(static_cast<double>(rr.window_flows), rr.window_s));
      producer_cpu_ns += static_cast<double>(rr.producer_cpu_ns);
      window_flows_all += rr.window_flows;
      offered += rr.offered;
      ingested += rr.ingested;
      checked += rr.checked;
      correct += rr.correct;
      malformed += rr.malformed;
      waits += rr.ring_full_waits;
      checks.expect(rr.final_table_rows >= 1, "published table is empty");
    }
    const ReplayResult untimed = replay(in, false);
    engine_mem_mb = static_cast<double>(untimed.peak_memory_bytes) / (1 << 20);

    attempted = offered;
    failed = offered > ingested ? offered - ingested : 0;
    const double ingest_ratio = ratio(static_cast<double>(ingested),
                                      static_cast<double>(offered));
    const double accuracy = ratio(static_cast<double>(correct),
                                  static_cast<double>(checked));
    // Feeders resubmit refused tails and retry on a full ring, open loop
    // included, so every offered flow must be ingested exactly once.
    checks.expect(ingested == offered, "ingest_ratio " + number(ingest_ratio) + " != 1");
    checks.expect(malformed == 0 && untimed.malformed == 0,
                  "malformed datagrams: " + std::to_string(malformed));
    checks.expect(accuracy > spec.accuracy_floor,
                  "accuracy " + number(accuracy) + " <= floor " +
                      number(spec.accuracy_floor));
    checks.expect(untimed.lpm_rows >= 1, "replayed table is empty");
    checks.expect(lags.size() >= 20, "fewer than 20 publish-lag samples");

    m["setup_s"] = {median(setup), "s"};
    m["flows_per_s"] = {median(rate), "1/s"};
    m["ingest_ratio"] = {ingest_ratio, "ratio"};
    m["accuracy"] = {accuracy, "ratio"};
    m["engine_mem_mb"] = {engine_mem_mb, "MiB"};
    // Pooled, not a median over rounds: the per-round cost has two modes
    // (see NOTES.md), and a median flips between them.
    m["reader_cpu_ns_per_flow"] = {
        ratio(producer_cpu_ns, static_cast<double>(window_flows_all)), "ns"};
    m["publish_lag_ms"] = {median(lags), "ms"};
    m["lookups_per_s"] = {median(lookup_rate), "1/s"};
    m["lookup_ns_p50"] = {median(lookup_p50), "ns"};
    m["lookup_ns_p99"] = {median(lookup_p99), "ns"};
    std::fprintf(stderr,
                 "pipebench: %zu rounds, %zu publish-lag samples, %llu "
                 "ring-full waits in the windows\n",
                 rounds.size(), lags.size(), static_cast<unsigned long long>(waits));
  } else {
    const RoundResult rr = run_round(in, true, false);
    checks.expect(rr.error.empty(), "live round: " + rr.error);
    const ReplayResult traced = replay(in, true);
    const ReplayResult untimed = replay(in, false);
    engine_mem_mb = static_cast<double>(untimed.peak_memory_bytes) / (1 << 20);
    checks.expect(traced.table3 == untimed.table3,
                  "traced and untimed Table-3 dumps differ");
    checks.expect(!untimed.table3.empty() && untimed.lpm_rows >= 1,
                  "replayed table is empty");
    checks.expect(rr.malformed == 0 && traced.malformed == 0,
                  "malformed datagrams");
    checks.expect(rr.ingested == rr.offered, "live round lost flows");
    checks.expect(traced.cycles.size() >= 34,
                  "fewer than 34 cycles: no supported p70");
    attempted = rr.offered;
    failed = rr.offered > rr.ingested ? rr.offered - rr.ingested : 0;

    double busy_ns = 0.0;
    const auto spans = span_totals(traced.spans, &busy_ns);
    const auto get = [&](const char* name) {
      const auto it = spans.find(name);
      return it == spans.end() ? SpanTotals{} : it->second;
    };
    const double flows = static_cast<double>(traced.flows);
    m["netflow.decode_ns_per_flow"] = {ratio(get("netflow.decode").total_ns, flows), "ns"};
    m["netflow.malformed"] = {static_cast<double>(traced.malformed + rr.malformed), "count"};
    m["collector.submit_ns_per_flow"] = {
        ratio(static_cast<double>(rr.submit_ns), static_cast<double>(rr.window_flows)),
        "ns"};
    m["collector.ring_full_waits"] = {static_cast<double>(rr.ring_full_waits), "count"};
    m["collector.tails_resubmitted"] = {static_cast<double>(rr.tails_resubmitted), "count"};
    m["collector.stat_time_ns_per_flow"] = {
        ratio(get("collector.stat_time").self_ns, flows), "ns"};
    m["core.apply_ns_per_flow"] = {ratio(get("core.apply").total_ns, flows), "ns"};

    std::vector<double> cycle_ms;
    std::array<double, ipd::core::kNumCyclePhases> phase_us{};
    double splits = 0, joins = 0, drops = 0, classifications = 0;
    for (const auto& c : traced.cycles) {
      cycle_ms.push_back(static_cast<double>(c.cycle_micros) * 1e-3);
      for (std::size_t i = 0; i < phase_us.size(); ++i) {
        phase_us[i] += static_cast<double>(c.phase_micros[i]);
      }
      splits += static_cast<double>(c.splits);
      joins += static_cast<double>(c.joins);
      drops += static_cast<double>(c.drops);
      classifications += static_cast<double>(c.classifications);
    }
    const double n_cycles = static_cast<double>(traced.cycles.size());
    m["core.cycle_ms_p50"] = {quantile(cycle_ms, 0.5), "ms"};
    m["core.cycle_ms_p70"] = {quantile(cycle_ms, 0.7), "ms"};
    const char* phases[] = {"expire", "classify", "split", "join", "compact"};
    for (std::size_t i = 0; i < phase_us.size(); ++i) {
      m[std::string("core.phase_ms.") + phases[i]] = {
          ratio(phase_us[i], n_cycles) * 1e-3, "ms"};
    }
    m["core.splits"] = {ratio(splits, n_cycles), "count"};
    m["core.joins"] = {ratio(joins, n_cycles), "count"};
    m["core.drops"] = {ratio(drops, n_cycles), "count"};
    m["core.classifications"] = {ratio(classifications, n_cycles), "count"};
    const auto& last = traced.cycles.empty() ? ipd::core::CycleStats{}
                                             : traced.cycles.back();
    m["core.ranges_total"] = {static_cast<double>(last.ranges_total), "count"};
    m["core.tracked_ips"] = {static_cast<double>(last.tracked_ips), "count"};
    m["core.snapshot_ms"] = {median(traced.snapshot_ms), "ms"};
    m["core.lpm_build_ms"] = {median(traced.lpm_build_ms), "ms"};
    m["core.lpm_rows"] = {static_cast<double>(traced.lpm_rows), "count"};
    m["core.parallel_units"] = {static_cast<double>(traced.parallel_units), "count"};

    const LookupStats ls = quiescent_lookups(*untimed.table, in.lookup_addrs, 500);
    m["net.lookup_ns"] = {median(ls.block_ns), "ns"};
    m["net.lookup_hit_ratio"] = {
        ratio(static_cast<double>(ls.hits), static_cast<double>(ls.lookups)), "ratio"};
    m["loadgen.late_ms_p99"] = {quantile(rr.late_ms, 0.99), "ms"};

    const auto self = [&](const char* name) { return get(name).self_ns; };
    m["share.decode"] = {ratio(self("netflow.decode"), busy_ns), "ratio"};
    m["share.stat_time"] = {ratio(self("collector.stat_time"), busy_ns), "ratio"};
    m["share.apply"] = {ratio(self("core.apply"), busy_ns), "ratio"};
    m["share.cycle"] = {ratio(self("core.cycle"), busy_ns), "ratio"};
    m["share.publish"] = {
        ratio(self("core.snapshot") + self("core.lpm_build"), busy_ns), "ratio"};
    m["trace.overhead_pct"] = {
        ratio(traced.wall_s - untimed.wall_s, untimed.wall_s) * 100.0, "%"};
    m["trace.spans"] = {static_cast<double>(traced.spans.size()), "count"};

    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/spans-" + spec.name + "-" +
                             std::to_string(args.seed) + ".csv";
    write_spans(path, traced.spans);
    std::fprintf(stderr, "pipebench: %zu spans written to %s\n",
                 traced.spans.size(), path.c_str());
  }

  for (const auto& [name, metric] : m) {
    std::fprintf(stderr, "pipebench: %-36s %14.6g %s\n", name.c_str(),
                 metric.value, metric.unit.c_str());
  }
  std::cout << "conditions " << conditions_json(cond, engine_mem_mb) << std::endl;
  if (!checks.failures.empty()) {
    for (const auto& f : checks.failures) {
      std::fprintf(stderr, "pipebench: check failed: %s\n", f.c_str());
    }
    print_result(false, attempted, failed, {});
    return 1;
  }
  print_result(true, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  try {
    return pipebench::run(pipebench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 2;
  }
}
