// Live rounds through the threaded collector.
//
// Producers submit pre-encoded datagrams with submit_datagram. A ring that
// is full admits only the prefix of a datagram that fits; the producer then
// resubmits exactly the refused tail, and sleeps while nothing fits, so no
// flow is lost or ingested twice. Producers keep within kSlack data seconds
// of each other, because the statistical-time filter drops records that
// trail the newest one by more than its skew limit.
#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>

#include "analysis/accuracy.hpp"
#include "collector/collector.hpp"
#include "runs.hpp"

namespace pipebench {

namespace {

using ipd::collector::CollectorService;
using TablePtr = std::shared_ptr<const ipd::core::LpmTable>;

// Producers' streams are sorted by export time, so one producer's next
// datagram is never more than a second or so past its last one; any slack
// above that keeps two producers from waiting on each other forever.
constexpr Timestamp kSlack = 10;              // data seconds
constexpr std::int64_t kFullSleepNs = 1000000;  // ring full: back off
constexpr std::int64_t kPollNs = 500000;       // table poll period
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
constexpr std::size_t kQuiescentBlocks = 1000;
constexpr std::int64_t kMaxWindowNs = 60'000'000'000;

struct ProducerOut {
  std::uint64_t window_flows = 0;
  std::int64_t cpu_ns = 0;
  // Feeder counters, window only.
  std::uint64_t ring_full_waits = 0;
  std::uint64_t tails = 0;
  std::int64_t submit_ns = 0;
  std::vector<double> late_ms;
  std::vector<std::int64_t> trigger_ns;  // per publish-lag trigger
};

struct Shared {
  CollectorService* svc = nullptr;
  const Input* in = nullptr;
  bool layer_timing = false;
  std::vector<std::atomic<Timestamp>> progress;
  std::atomic<int> warm_done{0};
  std::atomic<int> window_done{0};
  std::atomic<std::int64_t> window_start_ns{0};
  std::atomic<bool> abort{false};  // the round failed: producers return
  // Data time whose first datagram makes the collector publish the table of
  // each in-window snapshot boundary.
  std::vector<Timestamp> triggers;

  explicit Shared(std::size_t n) : progress(n) {}
};

Timestamp min_other(const Shared& sh, std::size_t self) {
  Timestamp m = std::numeric_limits<Timestamp>::max();
  for (std::size_t q = 0; q < sh.progress.size(); ++q) {
    if (q != self) m = std::min(m, sh.progress[q].load(std::memory_order_acquire));
  }
  return m;
}

void feed(Shared& sh, std::size_t p, const Stream& s, bool window,
          ProducerOut& out) {
  const Input& in = *sh.in;
  const bool open_loop = window && in.spec.offered_rate > 0.0;
  const bool track_late = open_loop || (window && sh.layer_timing);
  const std::int64_t start = sh.window_start_ns.load();
  const double ns_per_flow = open_loop ? 1e9 / in.spec.offered_rate : 0.0;
  std::vector<std::uint8_t> tail[2];
  int which = 0;
  std::size_t next_trigger = 0;
  std::uint64_t offered = 0;
  Timestamp newest = sh.progress[p].load();
  for (const Datagram& d : s.dgrams) {
    if (sh.abort.load(std::memory_order_relaxed)) return;
    while (d.ts - kSlack > min_other(sh, p) && !sh.abort.load()) sleep_ns(20000);
    std::int64_t due = 0;
    if (open_loop) {
      due = start + static_cast<std::int64_t>(static_cast<double>(offered) *
                                              ns_per_flow);
      const std::int64_t ahead = due - now_ns();
      if (ahead > 100000) sleep_ns(ahead);
    }
    const bool is_trigger =
        window && next_trigger < sh.triggers.size() && d.ts >= sh.triggers[next_trigger];
    std::int64_t first_attempt = 0;
    if (track_late || is_trigger) first_attempt = now_ns();
    if (!open_loop) due = first_attempt;
    while (is_trigger && next_trigger < sh.triggers.size() &&
           d.ts >= sh.triggers[next_trigger]) {
      out.trigger_ns[next_trigger++] = due;
    }

    std::span<const std::uint8_t> bytes = s.view(d);
    std::size_t remaining = d.records;
    std::int64_t admitted_at = 0;
    while (true) {
      const std::int64_t t0 = sh.layer_timing ? now_ns() : 0;
      const std::size_t accepted = sh.svc->submit_datagram(p, d.exporter, bytes);
      if (sh.layer_timing) {
        admitted_at = now_ns();
        out.submit_ns += admitted_at - t0;
      }
      if (accepted == remaining) break;
      if (accepted == 0) {
        if (sh.abort.load(std::memory_order_relaxed)) return;
        ++out.ring_full_waits;
        sleep_ns(kFullSleepNs);
        continue;
      }
      ++out.tails;
      tail_datagram(in.spec.proto, bytes, accepted, tail[which]);
      bytes = tail[which];
      which ^= 1;
      remaining -= accepted;
    }
    if (track_late) {
      if (admitted_at == 0) admitted_at = now_ns();
      out.late_ms.push_back(static_cast<double>(admitted_at - due) * 1e-6);
    }
    offered += d.records;
    newest = std::max(newest, d.ts);
    sh.progress[p].store(newest, std::memory_order_release);
  }
  if (window) out.window_flows = offered;
}

void producer(Shared& sh, std::size_t p, ProducerOut& out) {
  const Input& in = *sh.in;
  feed(sh, p, in.warm[p], false, out);
  sh.warm_done.fetch_add(1);
  while (sh.window_start_ns.load() == 0 && !sh.abort.load()) sleep_ns(20000);
  out.ring_full_waits = 0;
  out.tails = 0;
  out.submit_ns = 0;
  const std::int64_t cpu0 = thread_cpu_ns();
  feed(sh, p, in.window[p], true, out);
  out.cpu_ns = thread_cpu_ns() - cpu0;
  // A finished producer no longer holds the others back.
  sh.progress[p].store(std::numeric_limits<Timestamp>::max());
  sh.window_done.fetch_add(1);
}

void stop_producers(Shared& sh, std::vector<std::thread>& producers) {
  sh.abort.store(true);
  for (auto& t : producers) t.join();
}

struct LookupOut {
  std::vector<std::pair<std::int64_t, const ipd::core::LpmTable*>> seen;
  std::vector<double> block_ns;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
};

void lookup_reader(const CollectorService& svc,
                   const std::vector<ipd::net::IpAddress>& keys,
                   std::size_t offset, const std::atomic<bool>& stop,
                   LookupOut& out) {
  TablePtr cur;
  std::size_t k = offset;
  const std::size_t mask = keys.size() - 1;  // keys.size() is a power of two
  while (!stop.load(std::memory_order_relaxed)) {
    const std::int64_t t0 = now_ns();
    TablePtr t = svc.current_table();
    if (t != cur) {
      out.seen.emplace_back(t0, t.get());
      cur = std::move(t);
    }
    std::uint64_t hits = 0;
    for (std::size_t j = 0; j < kLookupBlock; ++j) {
      hits += cur->lookup(keys[k++ & mask]).has_value() ? 1 : 0;
    }
    const std::int64_t t1 = now_ns();
    out.block_ns.push_back(static_cast<double>(t1 - t0) /
                           static_cast<double>(kLookupBlock));
    out.lookups += kLookupBlock;
    out.hits += hits;
  }
}

}  // namespace

LookupStats quiescent_lookups(const ipd::core::LpmTable& table,
                              const std::vector<ipd::net::IpAddress>& keys,
                              std::size_t blocks) {
  LookupStats st;
  const std::size_t mask = keys.size() - 1;
  std::size_t k = 0;
  const std::int64_t w0 = now_ns();
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::int64_t t0 = now_ns();
    for (std::size_t j = 0; j < kLookupBlock; ++j) {
      st.hits += table.lookup(keys[k++ & mask]).has_value() ? 1 : 0;
    }
    st.block_ns.push_back(static_cast<double>(now_ns() - t0) /
                          static_cast<double>(kLookupBlock));
  }
  st.lookups = blocks * kLookupBlock;
  st.wall_s = static_cast<double>(now_ns() - w0) * 1e-9;
  return st;
}

RoundResult run_round(const Input& in, bool layer_timing, bool check_accuracy) {
  RoundResult rr;
  const Spec& spec = in.spec;
  const std::size_t n_prod = in.warm.size();
  constexpr Timestamp kSnap = 300;
  // Snapshot boundaries t0 + k*300, k = 1..K. The warm-up data publishes
  // k < W (W = the window's first boundary), the window publishes k = W..K-1
  // and stop() publishes k = K (t_end). tables[k - 1] is boundary k's table.
  const std::size_t K = static_cast<std::size_t>((in.t_end - in.t0) / kSnap);
  const std::size_t W = static_cast<std::size_t>((in.t_window - in.t0) / kSnap);

  const std::int64_t setup0 = now_ns();
  ipd::collector::CollectorConfig cfg;
  cfg.stat_time.activity_threshold = 1;
  cfg.shard_bits = spec.shard_bits;
  cfg.ingest_threads = spec.ingest_threads;
  CollectorService svc(in.params, cfg, n_prod);
  const TablePtr empty = svc.current_table();
  svc.start();

  Shared sh(n_prod);
  for (auto& p : sh.progress) p.store(in.t0);
  sh.svc = &svc;
  sh.in = &in;
  sh.layer_timing = layer_timing;
  for (std::size_t k = W; k < K; ++k) {
    // Publishing boundary B needs the statistical-time watermark three
    // buckets past B's bucket (two settle buckets, then B's own seals).
    sh.triggers.push_back(in.t0 + static_cast<Timestamp>(k) * kSnap +
                          3 * in.params.t);
  }
  std::vector<ProducerOut> outs(n_prod);
  for (auto& o : outs) o.trigger_ns.assign(sh.triggers.size(), kNever);
  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < n_prod; ++p) {
    producers.emplace_back([&sh, &outs, p] { producer(sh, p, outs[p]); });
  }

  // Setup ends when the last table the warm-up data can publish is out.
  std::vector<std::pair<TablePtr, std::int64_t>> tables;
  TablePtr last = empty;
  while (tables.size() < W - 1 && now_ns() < setup0 + kMaxWindowNs) {
    TablePtr t = svc.current_table();
    if (t != last) {
      last = t;
      tables.emplace_back(std::move(t), now_ns());
    } else {
      sleep_ns(kPollNs);
    }
  }
  if (tables.size() < W - 1) {
    rr.error = "warm-up did not publish its tables";
    stop_producers(sh, producers);
    return rr;
  }
  rr.setup_s = static_cast<double>(tables.back().second - setup0) * 1e-9;
  while (sh.warm_done.load() < static_cast<int>(n_prod)) sleep_ns(kPollNs);

  std::atomic<bool> stop_lookups{false};
  std::vector<LookupOut> louts(static_cast<std::size_t>(spec.lookup_threads));
  std::vector<std::thread> readers;
  const std::int64_t win0 = now_ns();
  sh.window_start_ns.store(win0);
  for (std::size_t r = 0; r < louts.size(); ++r) {
    readers.emplace_back([&, r] {
      lookup_reader(svc, in.lookup_addrs, r * 7919, stop_lookups, louts[r]);
    });
  }
  // Poll until the producers are done and the IPD thread has published
  // every in-window table (the last one only after the rings drain).
  const std::int64_t give_up = win0 + kMaxWindowNs;
  while ((sh.window_done.load() < static_cast<int>(n_prod) ||
          tables.size() < K - 1) &&
         now_ns() < give_up) {
    TablePtr t = svc.current_table();
    if (t != tables.back().first) tables.emplace_back(std::move(t), now_ns());
    sleep_ns(kPollNs);
  }
  const std::int64_t lookups_end = now_ns();
  stop_lookups.store(true);
  for (auto& t : readers) t.join();
  if (tables.size() < K - 1) sh.abort.store(true);  // timed out
  for (auto& t : producers) t.join();
  svc.stop();
  const std::int64_t win1 = now_ns();
  const std::size_t published_in_window = tables.size();
  const TablePtr final_table = svc.current_table();

  const auto stats = svc.stats();
  rr.window_s = static_cast<double>(win1 - win0) * 1e-9;
  std::uint64_t warm_flows = 0;
  for (std::size_t p = 0; p < n_prod; ++p) {
    warm_flows += in.warm[p].flows;
    rr.window_flows += outs[p].window_flows;
    rr.producer_cpu_ns += outs[p].cpu_ns;
    rr.ring_full_waits += outs[p].ring_full_waits;
    rr.tails_resubmitted += outs[p].tails;
    rr.submit_ns += outs[p].submit_ns;
    rr.late_ms.insert(rr.late_ms.end(), outs[p].late_ms.begin(),
                      outs[p].late_ms.end());
  }
  rr.offered = warm_flows + rr.window_flows;
  rr.ingested = stats.flows_ingested;
  rr.malformed = stats.datagrams_malformed;
  rr.final_table_rows = final_table->size();
  if (published_in_window != K - 1 || stats.snapshots_published != K ||
      final_table == tables.back().first) {
    rr.error = "expected " + std::to_string(K) + " publishes, saw " +
               std::to_string(stats.snapshots_published) + " (" +
               std::to_string(published_in_window) + " before stop)";
    return rr;
  }

  // Publish lag: due time of the trigger datagram -> first lookup block
  // (or, without lookup threads, the first poll) that saw the new table.
  for (std::size_t j = 0; j < sh.triggers.size(); ++j) {
    const auto& [table, polled] = tables[W - 1 + j];
    std::int64_t due = kNever;
    for (const auto& o : outs) due = std::min(due, o.trigger_ns[j]);
    std::int64_t seen = louts.empty() ? polled : kNever;
    for (const auto& lo : louts) {
      for (const auto& [ts, ptr] : lo.seen) {
        if (ptr == table.get()) seen = std::min(seen, ts);
      }
    }
    if (due == kNever || seen == kNever || seen < due) {
      rr.error = "publish lag sample " + std::to_string(j) + " not observed";
      return rr;
    }
    rr.publish_lag_ms.push_back(static_cast<double>(seen - due) * 1e-6);
  }

  if (!louts.empty()) {
    for (const auto& lo : louts) {
      rr.lookup_block_ns.insert(rr.lookup_block_ns.end(), lo.block_ns.begin(),
                                lo.block_ns.end());
      rr.lookups += lo.lookups;
    }
    rr.lookup_window_s = static_cast<double>(lookups_end - win0) * 1e-9;
  } else {
    const LookupStats ls =
        quiescent_lookups(*final_table, in.lookup_addrs, kQuiescentBlocks);
    rr.lookup_block_ns = ls.block_ns;
    rr.lookups = ls.lookups;
    rr.lookup_window_s = ls.wall_s;
  }

  // Accuracy: each window flow against the table published for its bin.
  if (!check_accuracy) return rr;
  const auto& topo = in.gen->topology();
  for (std::size_t i = 0; i < in.truth.ts.size(); ++i) {
    const auto k = static_cast<std::size_t>((in.truth.ts[i] - in.t0) / kSnap);
    ipd::netflow::FlowRecord rec;
    rec.ts = in.truth.ts[i];
    rec.src_ip = in.truth.src[i];
    rec.ingress = in.truth.ingress[i];
    ++rr.checked;
    if (ipd::analysis::check_flow(topo, *tables.at(k - 1).first, rec) ==
        ipd::analysis::Outcome::Correct) {
      ++rr.correct;
    }
  }
  return rr;
}

}  // namespace pipebench
