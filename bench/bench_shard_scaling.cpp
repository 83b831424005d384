// Sharded-engine scaling: stage-1 batch ingest and stage-2 cycles.
//
// The paper's deployment splits reader processes across a 48-core server
// (§5.7); the sharded engine brings that parallelism into one process by
// cutting each family's trie at the top shard_bits levels and fanning
// batches / cycle passes out across a worker pool. This bench measures
//   * stage-1 throughput: apply_batch through the one-shard (sequential)
//     engine vs k=4 shards at 1/2/4/8 worker threads, and
//   * stage-2 cycle latency: run_cycle on the same warmed partition,
//     sequential vs 8 threads.
// The acceptance claim — >= 3x stage-1 ingest at 8 threads — only has
// meaning with cores to run on, so the JSON gate scales with the machine:
// speedup_target = min(3.0, 0.6 * min(8, hardware_threads)), and CI
// enforces speedup_margin = speedup_t8 / speedup_target >= 1. On >= 5
// hardware threads that is exactly the 3x claim; a 1-core runner still
// guards against the sharded path collapsing (>= 0.6x sequential).
// Results land in BENCH_shard_scaling.json.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "netflow/flow_batch.hpp"
#include "util/strings.hpp"

using namespace ipd;

namespace {

constexpr int kShardBits = 4;
constexpr std::size_t kChunk = 4096;  // records per apply_batch call
constexpr util::Timestamp kT0 = bench::kDay1 + 20 * util::kSecondsPerHour;

std::uint64_t lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

/// One minute of synthetic traffic. Every top-nibble /4 is busy, so the
/// sharded engine's cut refines to the full shard width, and each /4
/// carries both steady-state stage-1 code paths in equal measure:
///   * lower half (bit 27 clear): one stable ingress per nibble — these
///     ranges classify during warm-up, so ingest is locate + counter bump;
///   * upper half (bit 27 set): two ingresses mixed on a deep address bit
///     (bit 8, kept by cidr_max masking) — no prefix above the floor ever
///     sees a dominant ingress, so these ranges stay Monitoring and ingest
///     pays the full per-IP bookkeeping cost.
std::vector<netflow::FlowRecord> make_minute(util::Timestamp ts,
                                             std::size_t flows,
                                             std::uint64_t seed) {
  std::vector<netflow::FlowRecord> out(flows);
  std::uint64_t rng = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (std::size_t i = 0; i < flows; ++i) {
    auto& r = out[i];
    const auto nibble = static_cast<std::uint32_t>(i % 16);
    const auto low = static_cast<std::uint32_t>(lcg(rng)) & 0x0FFFFFFFu;
    const auto router =
        (low & (1u << 27))
            ? 16 + nibble * 2 + ((low >> 8) & 1u)  // mixed: stays Monitoring
            : nibble;                              // stable: classifies
    r.ts = ts + static_cast<util::Timestamp>(i % 60);
    r.src_ip = net::IpAddress::v4((nibble << 28) | low);
    r.ingress = topology::LinkId{static_cast<topology::RouterId>(router), 0};
  }
  return out;
}

/// Thresholds calibrated for a quarter of the rate actually ingested.
/// Uniform traffic loses a factor sqrt(2) of split headroom per trie
/// level (samples halve, n_cidr only shrinks by sqrt(2)), so the default
/// root margin of 3 stalls the cascade around depth 3; a 4x overshoot
/// keeps margin ~3 at the /4 classification depth.
core::IpdParams bench_params(std::size_t fpm) {
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute = std::max<std::uint64_t>(1, fpm / 4);
  return workload::scaled_params(scenario);
}

constexpr int kWarmMinutes = 8;

/// Warm-up minutes with a cycle after each: the split cascade refines one
/// level per cycle, so eight cycles take the trie past the /4 blocks and
/// classifies them — measurement then hits the steady-state path.
void warm(core::IpdEngine& engine, std::size_t fpm) {
  for (int minute = 0; minute < kWarmMinutes; ++minute) {
    const util::Timestamp ts = kT0 + minute * 60;
    netflow::FlowBatch batch;
    netflow::append_records(
        batch, make_minute(ts, fpm, static_cast<std::uint64_t>(minute) + 1));
    engine.apply_batch(batch);
    engine.run_cycle(ts + 60);
  }
}

/// `slice` cut into kChunk-record SoA batches (built outside the timing).
std::vector<netflow::FlowBatch> chunked(
    const std::vector<netflow::FlowRecord>& slice) {
  std::vector<netflow::FlowBatch> out;
  for (std::size_t at = 0; at < slice.size(); at += kChunk) {
    netflow::append_records(
        out.emplace_back(),
        std::span(slice).subspan(at, std::min(kChunk, slice.size() - at)));
  }
  return out;
}

void ingest_chunked(core::IpdEngine& engine,
                    const std::vector<netflow::FlowBatch>& batches) {
  for (const netflow::FlowBatch& batch : batches) engine.apply_batch(batch);
}

/// Stage-1 flows/s: `passes` chunked-batch passes over `slice` on a fresh,
/// warmed engine; best of `rounds` (min wall time) to shed scheduler noise.
template <typename MakeEngine>
double measure_stage1(MakeEngine&& make_engine, std::size_t fpm,
                      const std::vector<netflow::FlowRecord>& slice,
                      int rounds, int passes) {
  const std::vector<netflow::FlowBatch> batches = chunked(slice);
  double best = 0.0;
  for (int round = 0; round < rounds; ++round) {
    auto engine = make_engine();
    warm(*engine, fpm);
    ingest_chunked(*engine, batches);  // warm pass, untimed
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < passes; ++p) ingest_chunked(*engine, batches);
    const double s = std::chrono::duration_cast<std::chrono::duration<double>>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    const double rate =
        s > 0.0 ? static_cast<double>(slice.size()) * passes / s : 0.0;
    best = std::max(best, rate);
  }
  return best;
}

/// Stage-2 mean run_cycle wall time (ms): each cycle first ingests a fresh
/// minute (untimed), then times run_cycle alone. Best (lowest mean) of
/// `rounds` fresh engines.
template <typename MakeEngine>
double measure_stage2(MakeEngine&& make_engine, std::size_t fpm, int rounds,
                      int cycles) {
  double best = 0.0;
  for (int round = 0; round < rounds; ++round) {
    auto engine = make_engine();
    warm(*engine, fpm);
    double total = 0.0;
    for (int c = 0; c < cycles; ++c) {
      const util::Timestamp ts = kT0 + (kWarmMinutes + c) * 60;
      ingest_chunked(*engine, chunked(make_minute(ts, fpm, 100 + c)));
      const auto t0 = std::chrono::steady_clock::now();
      engine->run_cycle(ts + 60);
      total += std::chrono::duration_cast<std::chrono::duration<double>>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    }
    const double mean_ms = total / cycles * 1000.0;
    best = best == 0.0 ? mean_ms : std::min(best, mean_ms);
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header(
      "Sharded engine scaling",
      ">= 3x stage-1 batch-ingest throughput at 8 threads (hardware-scaled)");

  const auto fpm =
      static_cast<std::size_t>(50000 * std::max(0.04, bench::bench_scale()));
  const int rounds = 3;
  const int passes = 4;
  const auto slice = make_minute(kT0 + kWarmMinutes * 60, fpm, 42);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  const auto make_sequential = [fpm] {
    return std::make_unique<core::IpdEngine>(bench_params(fpm));
  };
  const auto make_sharded = [fpm](int threads) {
    return [threads, fpm] {
      core::EngineConfig config;
      config.shard_bits = kShardBits;
      config.ingest_threads = threads;
      return std::make_unique<core::IpdEngine>(bench_params(fpm), config);
    };
  };

  // How far the partition actually refined (the parallelism ceiling).
  std::size_t units = 0;
  {
    auto probe = make_sharded(1)();
    warm(*probe, fpm);
    units = probe->parallel_units(net::Family::V4);
  }

  const double sequential =
      measure_stage1(make_sequential, fpm, slice, rounds, passes);

  const std::vector<int> thread_counts{1, 2, 4, 8};
  std::vector<double> rates;
  for (const int threads : thread_counts) {
    rates.push_back(
        measure_stage1(make_sharded(threads), fpm, slice, rounds, passes));
  }

  const double cycle_seq = measure_stage2(make_sequential, fpm, rounds, 5);
  const double cycle_sharded =
      measure_stage2(make_sharded(8), fpm, rounds, 5);

  const double speedup_t8 = sequential > 0.0 ? rates.back() / sequential : 0.0;
  const double target =
      std::min(3.0, 0.6 * std::min<double>(8.0, static_cast<double>(hw)));
  const double margin = target > 0.0 ? speedup_t8 / target : 0.0;

  std::printf("hardware threads: %u, parallel units (v4 cut): %zu\n", hw,
              units);
  std::printf("stage-1 batch ingest (best of %d rounds, %d passes, %zu-record chunks):\n",
              rounds, passes, kChunk);
  std::printf("  one shard                 %12.0f flows/s\n", sequential);
  std::string sharded_json;
  for (std::size_t i = 0; i < thread_counts.size(); ++i) {
    const double speedup = sequential > 0.0 ? rates[i] / sequential : 0.0;
    std::printf("  sharded k=%d, %d thread%s   %12.0f flows/s  (%.2fx)\n",
                kShardBits, thread_counts[i],
                thread_counts[i] == 1 ? " " : "s", rates[i], speedup);
    sharded_json += util::format(
        "%s{\"threads\":%d,\"flows_per_s\":%.6g,\"speedup\":%.4g}",
        i == 0 ? "" : ",", thread_counts[i], rates[i], speedup);
  }
  std::printf("stage-2 cycle (mean of 5 cycles, best of %d rounds):\n",
              rounds);
  std::printf("  one shard                 %12.3f ms\n", cycle_seq);
  std::printf("  sharded k=%d, 8 threads    %12.3f ms\n", kShardBits,
              cycle_sharded);
  bench::print_result("stage-1 speedup @ 8 threads",
                      util::format(">= %.2fx (3x at >= 5 cores)", target),
                      util::format("%.2fx", speedup_t8));

  bench::write_json_report(
      "shard_scaling",
      util::format(
          "{\"bench\":\"shard_scaling\",\"trace_records\":%zu,"
          "\"rounds\":%d,\"passes\":%d,\"chunk\":%zu,"
          "\"hardware_threads\":%u,\"shard_bits\":%d,"
          "\"parallel_units_v4\":%zu,"
          "\"stage1_sequential_flows_per_s\":%.6g,"
          "\"stage1_sharded\":[%s],"
          "\"stage2_cycle_ms\":{\"sequential\":%.6g,\"sharded_t8\":%.6g,"
          "\"sharded_vs_sequential\":%.4g},"
          "\"speedup_t8\":%.4g,"
          "\"speedup_target\":%.4g,"
          "\"speedup_margin\":%.4g,"
          "\"target_rule\":\"min(3.0, 0.6*min(8, hardware_threads))\"}",
          slice.size(), rounds, passes, kChunk, hw, kShardBits, units,
          sequential, sharded_json.c_str(), cycle_seq, cycle_sharded,
          cycle_seq > 0.0 ? cycle_sharded / cycle_seq : 0.0, speedup_t8,
          target, margin));
  return 0;
}
