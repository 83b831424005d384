// Workload specs, input generation and datagram encoding.
//
// Everything here runs before any clock the report uses starts: the
// generator's flows are packed per exporting router into NetFlow v5 or
// IPFIX datagrams, routers are spread over the producers, and the window's
// ground truth is decoded back from the very bytes the collector will see.
#include <algorithm>
#include <cerrno>
#include <ctime>
#include <numeric>
#include <stdexcept>

#include "common.hpp"
#include "netflow/ipfix.hpp"
#include "netflow/v5.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace pipebench {

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

void sleep_ns(std::int64_t ns) noexcept {
  if (ns <= 0) return;
  timespec ts{static_cast<time_t>(ns / 1000000000),
              static_cast<long>(ns % 1000000000)};
  while (nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

Spec make_spec(const std::string& workload, int nproc) {
  Spec s;
  s.name = workload;
  const int spare = std::max(1, nproc - 1);
  if (workload == "collector_zipf") {
    // The §5.7 deployment path: v5 from several readers into one
    // sequential engine, volume high enough that stage 1 dominates.
    s.proto = Proto::V5;
    s.flows_per_minute = 120000;
    s.v6_share = 0.0;  // v5 carries IPv4 only
    s.warm_minutes = 25;
    s.window_minutes = 30;
    // Several readers, one core left for the benchmark's table poll and the
    // OS: with nproc - 1 readers the rounds spread twice as wide.
    s.producers = std::max(1, nproc - 2);
    s.accuracy_floor = 0.5;
  } else if (workload == "sharded_churn") {
    // Noise-heavy, high-cardinality, v6-rich input at a low rate, so the
    // stage-2 walk and publish dominate the IPD thread.
    s.proto = Proto::Ipfix;
    s.flows_per_minute = 25000;
    s.v6_share = 0.4;
    s.spoof_share = 0.03;
    s.background_share = 0.25;
    s.maintenance_storm = true;
    s.n_ases = 80;
    s.unit_scale = 1.0;
    s.warm_minutes = 30;
    s.window_minutes = 45;
    s.producers = 1;
    s.shard_bits = 4;
    s.ingest_threads = spare;
    s.accuracy_floor = 0.3;
  } else if (workload == "lookup_mixed") {
    // collector_zipf's input, offered at a fixed rate by one producer,
    // beside closed-loop readers of the published table.
    s = make_spec("collector_zipf", nproc);
    s.name = workload;
    s.producers = 1;
    s.lookup_threads = std::max(1, std::min(2, nproc - 2));
    s.offered_rate = 7.0e5;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return s;
}

namespace {

constexpr std::size_t kMaxRecords = 30;  // per datagram (v5's limit)
constexpr std::uint64_t kScenarioSeed = 7;  // paper_default's own seed
constexpr std::size_t kIpfixV4Bytes = 32;
constexpr std::size_t kIpfixV6Bytes = 56;

std::uint16_t get16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
void put16(std::uint8_t* p, std::size_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

struct Encoded {
  std::vector<std::uint8_t> bytes;
  std::uint32_t records = 0;
  ipd::topology::RouterId exporter = 0;
  Timestamp ts = 0;
  bool window = false;
};

// Per-router packer: records are buffered per exporting router and sealed
// into a datagram when it holds kMaxRecords or at the end of each data
// minute (the exporter's active timeout).
class Packer {
 public:
  Packer(Proto proto, std::size_t n_routers) : proto_(proto), buf_(n_routers) {
    for (std::size_t r = 0; r < n_routers; ++r) {
      exporters_.emplace_back(static_cast<std::uint32_t>(r));
    }
  }

  void add(const ipd::netflow::FlowRecord& rec, bool window) {
    auto& b = buf_.at(rec.ingress.router);
    b.push_back(rec);
    if (b.size() == kMaxRecords) seal(rec.ingress.router, window);
  }

  void flush(bool window) {
    for (std::size_t r = 0; r < buf_.size(); ++r) {
      if (!buf_[r].empty()) seal(static_cast<ipd::topology::RouterId>(r), window);
    }
  }

  std::vector<Encoded> out;

 private:
  void seal(ipd::topology::RouterId router, bool window) {
    auto& b = buf_[router];
    Encoded e;
    e.exporter = router;
    e.records = static_cast<std::uint32_t>(b.size());
    e.window = window;
    if (proto_ == Proto::V5) {
      auto packets = ipd::netflow::v5::from_flow_records(b, seq_[router]);
      seq_[router] += e.records;
      e.bytes = ipd::netflow::v5::encode(packets.at(0));
      e.ts = b.front().ts;  // v5 stamps every record with the export time
    } else {
      Timestamp newest = 0;
      for (const auto& r : b) newest = std::max(newest, r.ts);
      // An exporter's clock never runs backwards: keeping each router's
      // export times monotone keeps its messages in export order (the
      // template-bearing first message first) after the sort by time.
      newest = std::max(newest, last_export_[router]);
      last_export_[router] = newest;
      auto msgs = exporters_[router].export_flows(
          b, static_cast<std::uint32_t>(newest));
      e.bytes = std::move(msgs.at(0));
      e.ts = newest;
    }
    out.push_back(std::move(e));
    b.clear();
  }

  Proto proto_;
  std::vector<std::vector<ipd::netflow::FlowRecord>> buf_;
  std::vector<ipd::netflow::ipfix::Exporter> exporters_;
  std::map<ipd::topology::RouterId, std::uint32_t> seq_;
  std::map<ipd::topology::RouterId, Timestamp> last_export_;
};

void append(Stream& s, const Encoded& e) {
  Datagram d;
  d.offset = s.bytes.size();
  d.len = static_cast<std::uint32_t>(e.bytes.size());
  d.records = e.records;
  d.exporter = e.exporter;
  d.ts = e.ts;
  s.bytes.insert(s.bytes.end(), e.bytes.begin(), e.bytes.end());
  s.dgrams.push_back(d);
  s.flows += e.records;
}

// Decode a stream the way the collector does (one fresh batch per
// datagram) and append its rows to the ground truth.
void decode_into(Proto proto, const Stream& s,
                 ipd::netflow::ipfix::Parser& parser, Truth* truth) {
  for (const auto& d : s.dgrams) {
    ipd::netflow::FlowBatch batch;
    bool ok = false;
    if (proto == Proto::V5) {
      ok = ipd::netflow::v5::decode_batch(s.view(d), d.exporter, batch)
               .has_value();
    } else {
      ok = parser.parse_batch(s.view(d), d.exporter, batch);
    }
    if (!ok || batch.size() != d.records) {
      throw std::runtime_error("encoded datagram does not decode back");
    }
    if (truth == nullptr) continue;
    truth->ts.insert(truth->ts.end(), batch.ts.begin(), batch.ts.end());
    truth->src.insert(truth->src.end(), batch.src_ip.begin(),
                      batch.src_ip.end());
    truth->ingress.insert(truth->ingress.end(), batch.ingress.begin(),
                          batch.ingress.end());
  }
}

}  // namespace

Input make_input(const Spec& spec, std::uint64_t seed) {
  const std::int64_t t_gen0 = now_ns();
  Input in;
  in.spec = spec;
  ipd::workload::ScenarioConfig scenario = ipd::workload::paper_default();
  scenario.flows_per_minute = spec.flows_per_minute;
  scenario.v6_share = spec.v6_share;
  scenario.spoof_share = spec.spoof_share;
  scenario.background_share = spec.background_share;
  scenario.universe.n_ases = spec.n_ases;
  scenario.universe.unit_scale = spec.unit_scale;
  // One simulated ISP (the scenario seed fixes topology and AS universe);
  // the benchmark seed picks which evening of its first week is replayed:
  // the day (mapping churn differs) and a 5-minute offset (the traffic
  // draws differ). Later weeks are left out because the scenario's
  // peering-violation ramp grows daily and would drift the table with the
  // seed. The window stays on the 5-minute snapshot grid.
  scenario.seed = kScenarioSeed;
  in.t0 = static_cast<Timestamp>(1 + seed % 7) * ipd::util::kSecondsPerDay +
          19 * ipd::util::kSecondsPerHour +
          static_cast<Timestamp>((seed / 7) % 12) * 300;
  in.t_window = in.t0 + spec.warm_minutes * 60;
  in.t_end = in.t_window + spec.window_minutes * 60;
  const std::size_t n_routers = static_cast<std::size_t>(
      scenario.topo.n_pops * scenario.topo.routers_per_pop);
  if (spec.maintenance_storm) {
    // Two-minute maintenance windows marching across the routers with a
    // one-minute gap: a steady stream of ingress remaps for stage 2.
    for (Timestamp t = in.t0; t < in.t_end; t += 3 * 60) {
      const auto i = static_cast<std::size_t>((t - in.t0) / 180);
      scenario.maintenances.push_back(ipd::workload::MaintenanceEvent{
          .router = static_cast<ipd::topology::RouterId>((3 + 7 * i) %
                                                         n_routers),
          .start = t,
          .end = t + 120});
    }
  }
  in.params = ipd::workload::scaled_params(scenario);
  in.gen = std::make_unique<ipd::workload::FlowGenerator>(scenario);
  ipd::workload::FlowGenerator& gen = *in.gen;
  if (gen.topology().routers().size() != n_routers) {
    throw std::runtime_error("unexpected router count");
  }

  Packer packer(spec.proto, n_routers);
  std::vector<std::uint64_t> router_flows(n_routers, 0);
  for (Timestamp minute = in.t0; minute < in.t_end; minute += 60) {
    const bool window = minute >= in.t_window;
    gen.generate_minute(minute, [&](const ipd::netflow::FlowRecord& r) {
      if (spec.proto == Proto::V5 && !r.src_ip.is_v4()) return;
      ++router_flows.at(r.ingress.router);
      packer.add(r, window);
    });
    packer.flush(window);
  }

  // Spread routers over producers so every producer carries about the same
  // flow rate: the rings drain in equal record shares, so unequal rates
  // would let one producer's data time run ahead of the others'.
  const std::size_t n_prod = static_cast<std::size_t>(spec.producers);
  std::vector<std::size_t> order(n_routers);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return router_flows[a] > router_flows[b];
  });
  std::vector<std::uint64_t> load(n_prod, 0);
  std::vector<std::size_t> owner(n_routers, 0);
  for (std::size_t r : order) {
    const auto p = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    owner[r] = p;
    load[p] += router_flows[r];
  }

  // Each producer submits in export-time order, like a set of exporters.
  std::stable_sort(packer.out.begin(), packer.out.end(),
                   [](const Encoded& a, const Encoded& b) { return a.ts < b.ts; });
  in.warm.resize(n_prod);
  in.window.resize(n_prod);
  for (const auto& e : packer.out) {
    auto& streams = e.window ? in.window : in.warm;
    append(streams[owner[e.exporter]], e);
  }

  for (std::size_t p = 0; p < n_prod; ++p) {
    ipd::netflow::ipfix::Parser parser;
    decode_into(spec.proto, in.warm[p], parser, nullptr);
    decode_into(spec.proto, in.window[p], parser, &in.truth);
  }

  if (in.truth.src.empty()) throw std::runtime_error("empty timed window");

  // Lookup keys: traffic-weighted sources from the window plus one in
  // eight drawn from multicast space, which no range ever covers.
  ipd::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
  const std::size_t n_keys = 1 << 16;
  const std::size_t n_truth = in.truth.src.size();
  for (std::size_t i = 0; i < n_keys; ++i) {
    if (i % 8 == 7) {
      in.lookup_addrs.push_back(ipd::net::IpAddress::v4(
          0xE0000000u | static_cast<std::uint32_t>(rng.below(1u << 28))));
    } else {
      in.lookup_addrs.push_back(in.truth.src[rng.below(n_truth)]);
    }
  }
  in.generate_s = static_cast<double>(now_ns() - t_gen0) * 1e-9;
  return in;
}

void tail_datagram(Proto proto, std::span<const std::uint8_t> bytes,
                   std::size_t skip, std::vector<std::uint8_t>& out) {
  out.clear();
  if (proto == Proto::V5) {
    const std::size_t count = get16(bytes.data() + 2);
    const std::size_t hdr = ipd::netflow::v5::kHeaderBytes;
    const std::size_t rec = ipd::netflow::v5::kRecordBytes;
    out.assign(bytes.begin(), bytes.begin() + hdr);
    put16(out.data() + 2, count - skip);
    out.insert(out.end(), bytes.begin() + hdr + skip * rec, bytes.end());
    return;
  }
  // IPFIX: keep the message header, drop the template set (the parser
  // learned it from the first submission), and cut `skip` records from the
  // data sets in message order.
  constexpr std::size_t kHdr = 16;
  out.assign(bytes.begin(), bytes.begin() + kHdr);
  std::size_t pos = kHdr;
  while (pos + 4 <= bytes.size()) {
    const std::uint16_t id = get16(bytes.data() + pos);
    const std::size_t len = get16(bytes.data() + pos + 2);
    if (id >= 256) {
      const std::size_t rs = id == 256 ? kIpfixV4Bytes : kIpfixV6Bytes;
      const std::size_t n = (len - 4) / rs;
      const std::size_t drop = std::min(skip, n);
      skip -= drop;
      if (n > drop) {
        const std::size_t at = out.size();
        out.resize(at + 4);
        put16(out.data() + at, id);
        put16(out.data() + at + 2, 4 + (n - drop) * rs);
        const auto first = bytes.begin() + static_cast<std::ptrdiff_t>(
                                               pos + 4 + drop * rs);
        out.insert(out.end(), first, first + static_cast<std::ptrdiff_t>(
                                                 (n - drop) * rs));
      }
    }
    pos += len;
  }
  put16(out.data() + 2, out.size());
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

}  // namespace pipebench
