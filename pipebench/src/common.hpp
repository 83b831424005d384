// Shared types of the IPD pipeline benchmark.
//
// The benchmark sits outside the program: it generates a workload from a
// seed, encodes it into export datagrams before any clock starts, and then
// drives the repository's public calls (CollectorService, the engines,
// take_snapshot, LpmTable) exactly as a deployment would. See NOTES.md for
// why each workload exists and how the metrics map onto the layers.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/params.hpp"
#include "net/ip_address.hpp"
#include "topology/ids.hpp"
#include "util/time.hpp"
#include "workload/generator.hpp"

namespace pipebench {

using ipd::util::Timestamp;

std::int64_t now_ns() noexcept;
std::int64_t thread_cpu_ns() noexcept;
void sleep_ns(std::int64_t ns) noexcept;

enum class Proto : std::uint8_t { V5, Ipfix };

/// Everything that defines one workload apart from the seed.
struct Spec {
  std::string name;
  Proto proto = Proto::V5;
  std::uint64_t flows_per_minute = 0;  // generator peak rate (data time)
  double v6_share = 0.0;
  double spoof_share = 0.01;
  double background_share = 0.075;
  bool maintenance_storm = false;
  int n_ases = 40;          // paper_default universe size
  double unit_scale = 0.4;  // paper_default mapping units per AS
  // Data-time layout in minutes after the aligned start t0, both multiples
  // of the 5-minute snapshot length. The warm-up lets the partition
  // converge; the window is what the round times.
  int warm_minutes = 25;
  int window_minutes = 30;
  // Threads per role (all capped so their sum stays <= nproc).
  int producers = 1;
  int shard_bits = -1;  // <0: sequential IpdEngine
  int ingest_threads = 1;
  int lookup_threads = 0;
  // Open loop: offered flows per wall second during the window (0 =
  // closed loop, producers submit as fast as the rings admit).
  double offered_rate = 0.0;
  double accuracy_floor = 0.0;
};

Spec make_spec(const std::string& workload, int nproc);

/// One encoded export datagram inside a stream's byte arena.
struct Datagram {
  std::uint64_t offset = 0;
  std::uint32_t len = 0;
  std::uint32_t records = 0;
  ipd::topology::RouterId exporter = 0;
  Timestamp ts = 0;  // export time (v5) / earliest flow start (IPFIX)
};

/// The datagrams one producer submits, in submission order.
struct Stream {
  std::vector<std::uint8_t> bytes;
  std::vector<Datagram> dgrams;
  std::uint64_t flows = 0;

  std::span<const std::uint8_t> view(const Datagram& d) const {
    return {bytes.data() + d.offset, d.len};
  }
};

/// Ground truth of the timed-window flows as the collector decodes them.
struct Truth {
  std::vector<Timestamp> ts;
  std::vector<ipd::net::IpAddress> src;
  std::vector<ipd::topology::LinkId> ingress;
};

struct Input {
  Spec spec;
  ipd::core::IpdParams params;
  std::unique_ptr<ipd::workload::FlowGenerator> gen;  // topology, universe
  Timestamp t0 = 0;        // first data minute (snapshot aligned)
  Timestamp t_window = 0;  // first window minute
  Timestamp t_end = 0;     // window end (snapshot boundary)
  std::vector<Stream> warm;    // per producer
  std::vector<Stream> window;  // per producer
  Truth truth;                 // window flows
  std::vector<ipd::net::IpAddress> lookup_addrs;
  double generate_s = 0.0;  // wall time spent generating + encoding
};

Input make_input(const Spec& spec, std::uint64_t seed);

/// Datagram bytes with the first `skip` flow records removed (in the order
/// the collector's decoder emits them). Used to resubmit the tail that a
/// full ring refused, without resubmitting the admitted prefix.
void tail_datagram(Proto proto, std::span<const std::uint8_t> bytes,
                   std::size_t skip, std::vector<std::uint8_t>& out);

/// Timing samples reduced to the percentiles the report may use.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Metric name -> (value, unit), printed in insertion-independent order.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What every run records about the conditions it ran under.
struct Conditions {
  int nproc = 0;
  double llc_mib = 0.0;
  bool pmu = false;
  std::string build_type;
  std::string simd_level;
  std::uint64_t seed = 0;
  int producers = 0;
  int ipd_threads = 1;
  int shard_workers = 0;
  int lookup_threads = 0;
  double host_probe_ms = 0.0;  // fixed single-thread work; tracks host speed
  int total_threads() const {
    return producers + ipd_threads + shard_workers + lookup_threads;
  }
};

Conditions probe_conditions(const Spec& spec, std::uint64_t seed, int nproc);
std::string conditions_json(const Conditions& c, double engine_mem_mb);

}  // namespace pipebench
