// The conditions record printed with every result.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common.hpp"
#include "netflow/simd.hpp"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace pipebench {

namespace {

// Size of the highest-level CPU cache in MiB, from sysfs (0 if unknown).
double llc_mib() {
  namespace fs = std::filesystem;
  int best_level = -1;
  double best = 0.0;
  const fs::path dir = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::ifstream level_in(entry.path() / "level");
    std::ifstream size_in(entry.path() / "size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) continue;
    double value = std::atof(size.c_str());
    if (size.back() == 'K') value /= 1024.0;
    if (size.back() == 'G') value *= 1024.0;
    if (level > best_level) {
      best_level = level;
      best = value;
    }
  }
  return best;
}

// Wall time of a fixed, cache-resident integer loop: lets two results be
// compared for how fast the host itself ran at the time.
double host_probe_ms() {
  std::vector<std::uint32_t> table(1 << 16);
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    table[x & 0xFFFF] += static_cast<std::uint32_t>(x >> 32);
  }
  const std::int64_t t1 = now_ns();
  volatile std::uint32_t sink = table[x & 0xFFFF];
  (void)sink;
  return static_cast<double>(t1 - t0) * 1e-6;
}

bool pmu_present() {
  return std::filesystem::exists("/sys/bus/event_source/devices/cpu") ||
         std::filesystem::exists("/sys/bus/event_source/devices/cpu_core");
}

}  // namespace

Conditions probe_conditions(const Spec& spec, std::uint64_t seed, int nproc) {
  Conditions c;
  c.nproc = nproc;
  c.llc_mib = llc_mib();
  c.pmu = pmu_present();
  c.build_type = PIPEBENCH_BUILD_TYPE;
  c.simd_level = ipd::netflow::simd::to_string(ipd::netflow::simd::active_level());
  c.seed = seed;
  c.producers = spec.producers;
  c.shard_workers = spec.shard_bits >= 0 ? spec.ingest_threads - 1 : 0;
  c.lookup_threads = spec.lookup_threads;
  c.host_probe_ms = host_probe_ms();
  return c;
}

std::string conditions_json(const Conditions& c, double engine_mem_mb) {
  std::ostringstream o;
  o << "{\"nproc\": " << c.nproc << ", \"llc_mib\": " << c.llc_mib
    << ", \"engine_mem_over_llc\": "
    << (c.llc_mib > 0 ? engine_mem_mb / c.llc_mib : 0.0)
    << ", \"fits_in_llc\": "
    << (c.llc_mib > 0 && engine_mem_mb < c.llc_mib ? "true" : "false")
    << ", \"pmu\": " << (c.pmu ? "true" : "false") << ", \"build_type\": \""
    << c.build_type << "\", \"simd\": \"" << c.simd_level
    << "\", \"seed\": " << c.seed << ", \"threads\": {\"producers\": "
    << c.producers << ", \"ipd\": " << c.ipd_threads
    << ", \"shard_workers\": " << c.shard_workers
    << ", \"lookup\": " << c.lookup_threads
    << ", \"total\": " << c.total_threads()
    << "}, \"host_probe_ms\": " << c.host_probe_ms << "}";
  return o.str();
}

}  // namespace pipebench
