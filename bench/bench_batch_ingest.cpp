// Batch-ingest speedup: apply_batch() vs record-at-a-time ingest() on the
// sequential engine, single core, identical engine states.
//
// The batched stage-1 path earns its keep only when the per-record walk is
// memory-bound: interleaved trie descents (locate_many) plus interleaved
// per-IP probe walks (FlatIpTable::apply_many) overlap the dependent loads
// that a one-record-at-a-time loop eats serially — out-of-order hardware
// only spans a couple of records' chains. So the workload is sized for
// cache hostility —
// millions of distinct masked source IPs spread over busy top-nibble
// blocks, far beyond any LLC — and both paths run over byte-identical
// record sequences on identically warmed engines (apply_batch is defined
// to be byte-identical to the per-record loop, so the two engines hold the
// same state throughout; test_batch_apply proves that claim, this bench
// prices it).
//
// The acceptance gate is the *ratio*, not an absolute rate: CI enforces
// speedup = batch_flows_per_s / record_flows_per_s >= 1.5 via
// bench/baselines/batch_ingest.json, which is hardware-neutral — slower
// machines miss more, and the prefetch pipeline helps them more, not less.
// Results land in BENCH_batch_ingest.json.
#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/engine.hpp"
#include "netflow/flow_batch.hpp"
#include "netflow/simd.hpp"
#include "util/strings.hpp"

using namespace ipd;

namespace {

constexpr std::size_t kBatchSize = 4096;  // records per apply_batch call
constexpr util::Timestamp kT0 = bench::kDay1 + 20 * util::kSecondsPerHour;

std::uint64_t lcg(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

/// `flows` records across all 16 top-nibble /4 blocks with random low
/// bits: after cidr_max masking (/28) the stream still touches ~min(flows,
/// 2^28) distinct keys, so per-IP lookups miss every cache level once the
/// working set outgrows the LLC. Half the routers are stable per nibble
/// (ranges classify during warm-up), half mix on a deep bit (ranges stay
/// Monitoring and pay full per-IP bookkeeping) — same split as
/// bench_shard_scaling, so both steady-state ingest paths are priced.
std::vector<netflow::FlowRecord> make_slice(util::Timestamp ts,
                                            std::size_t flows,
                                            std::uint64_t seed) {
  std::vector<netflow::FlowRecord> out(flows);
  std::uint64_t rng = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (std::size_t i = 0; i < flows; ++i) {
    auto& r = out[i];
    const auto nibble = static_cast<std::uint32_t>(i % 16);
    const auto low = static_cast<std::uint32_t>(lcg(rng)) & 0x0FFFFFFFu;
    const auto router =
        (low & (1u << 27)) ? 16 + nibble * 2 + ((low >> 8) & 1u) : nibble;
    r.ts = ts + static_cast<util::Timestamp>(i % 60);
    r.src_ip = net::IpAddress::v4((nibble << 28) | low);
    r.ingress = topology::LinkId{static_cast<topology::RouterId>(router), 0};
  }
  return out;
}

core::IpdParams bench_params(std::size_t fpm) {
  workload::ScenarioConfig scenario = workload::small_test();
  scenario.flows_per_minute = std::max<std::uint64_t>(1, fpm / 4);
  return workload::scaled_params(scenario);
}

constexpr int kWarmMinutes = 8;

/// Warm-up: refine the trie one split level per cycle so measurement hits
/// the steady-state partition, exactly as in bench_shard_scaling. Both
/// engines get the identical warm stream.
void warm(core::IpdEngine& engine, std::size_t fpm) {
  for (int minute = 0; minute < kWarmMinutes; ++minute) {
    const util::Timestamp ts = kT0 + minute * 60;
    netflow::FlowBatch batch;
    netflow::append_records(
        batch, make_slice(ts, fpm, static_cast<std::uint64_t>(minute) + 1));
    engine.apply_batch(batch);
    engine.run_cycle(ts + 60);
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

using PassFn = std::function<void(core::IpdEngine&,
                                  const std::vector<netflow::FlowRecord>&)>;

/// Best-of-rounds flows/s for one ingest strategy: fresh warmed engine per
/// round, one untimed pass to populate the per-IP tables, then `passes`
/// timed passes.
double measure(const PassFn& pass, std::size_t fpm,
               const std::vector<netflow::FlowRecord>& slice, int rounds,
               int passes) {
  double best = 0.0;
  for (int round = 0; round < rounds; ++round) {
    core::IpdEngine engine(bench_params(fpm));
    warm(engine, fpm);
    pass(engine, slice);  // untimed: faults the working set in
    const auto t0 = std::chrono::steady_clock::now();
    for (int p = 0; p < passes; ++p) pass(engine, slice);
    const double s = seconds_since(t0);
    const double rate =
        s > 0.0 ? static_cast<double>(slice.size()) * passes / s : 0.0;
    best = std::max(best, rate);
  }
  return best;
}

}  // namespace

int main() {
  bench::print_header(
      "Batch-ingest speedup",
      ">= 1.5x single-core stage-1 throughput from apply_batch vs "
      "record-at-a-time ingest");

  // Working-set size deliberately does NOT shrink below LLC scale with
  // IPD_BENCH_SCALE: the ratio is only meaningful when lookups miss.
  const auto flows = static_cast<std::size_t>(
      2'000'000 * std::clamp(bench::bench_scale(), 0.25, 4.0));
  const int rounds = 3;
  const int passes = 2;
  const auto slice = make_slice(kT0 + kWarmMinutes * 60, flows, 42);

  std::size_t distinct = 0;
  {
    std::unordered_set<std::uint32_t> keys;
    keys.reserve(slice.size() * 2);
    for (const auto& r : slice) {
      keys.insert(r.src_ip.v4_value() & 0xFFFFFFF0u);  // /28 mask
    }
    distinct = keys.size();
  }

  const PassFn record_at_a_time =
      [](core::IpdEngine& engine,
         const std::vector<netflow::FlowRecord>& slice) {
        for (const auto& r : slice) engine.ingest(r);
      };
  const PassFn batched = [](core::IpdEngine& engine,
                            const std::vector<netflow::FlowRecord>& slice) {
    netflow::FlowBatch batch;
    batch.reserve(kBatchSize);
    for (std::size_t at = 0; at < slice.size(); at += kBatchSize) {
      batch.clear();
      netflow::append_records(
          batch, std::span(slice).subspan(
                     at, std::min(kBatchSize, slice.size() - at)));
      engine.apply_batch(batch);
    }
  };

  const double record_rate =
      measure(record_at_a_time, flows, slice, rounds, passes);
  const double batch_rate = measure(batched, flows, slice, rounds, passes);
  const double speedup = record_rate > 0.0 ? batch_rate / record_rate : 0.0;

  std::printf("trace: %zu records, %zu distinct /28 keys, simd=%s\n",
              slice.size(), distinct,
              netflow::simd::to_string(netflow::simd::active_level()));
  std::printf("single-core stage-1 (best of %d rounds, %d passes):\n",
              rounds, passes);
  std::printf("  record-at-a-time ingest()  %12.0f flows/s\n", record_rate);
  std::printf("  apply_batch(%zu)          %12.0f flows/s\n", kBatchSize,
              batch_rate);
  bench::print_result("batch-ingest speedup", ">= 1.50x",
                      util::format("%.2fx", speedup));

  bench::write_json_report(
      "batch_ingest",
      util::format(
          "{\"bench\":\"batch_ingest\",\"records\":%zu,"
          "\"distinct_masked_keys\":%zu,\"batch_size\":%zu,"
          "\"rounds\":%d,\"passes\":%d,\"simd_level\":\"%s\","
          "\"record_flows_per_s\":%.6g,\"batch_flows_per_s\":%.6g,"
          "\"speedup\":%.4g}",
          slice.size(), distinct, kBatchSize, rounds, passes,
          netflow::simd::to_string(netflow::simd::active_level()),
          record_rate, batch_rate, speedup));
  return 0;
}
