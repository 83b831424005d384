// Single-thread replay through the layers' public calls, in the order the
// collector makes them: decode one batch per datagram, offer each record
// to statistical time, buffer records for a batched apply, run stage-2
// cycles and publish snapshots on data time. The sink below mirrors
// CollectorService's statistical-time sink, boundary tie-break included.
#include <algorithm>
#include <stdexcept>

#include "core/engine.hpp"
#include "core/lpm_table.hpp"
#include "core/output.hpp"
#include "core/sharded_engine.hpp"
#include "netflow/ipfix.hpp"
#include "netflow/statistical_time.hpp"
#include "netflow/v5.hpp"
#include "obs/metrics.hpp"
#include "runs.hpp"

namespace pipebench {

namespace {

constexpr ipd::util::Duration kSnapshotLen = 300;  // CollectorConfig default
constexpr std::size_t kEngineBatch = 1024;         // CollectorConfig default

// In-memory span recorder; a null recorder costs one branch per call.
class Recorder {
 public:
  explicit Recorder(std::vector<Span>* spans) : spans_(spans) {}

  class Scope {
   public:
    Scope(Recorder& r, const char* name) : r_(r) {
      if (r_.spans_ == nullptr) return;
      idx_ = static_cast<std::int32_t>(r_.spans_->size());
      r_.spans_->push_back(Span{name, now_ns(), 0, r_.open_});
      r_.open_ = idx_;
    }
    ~Scope() {
      if (idx_ < 0) return;
      Span& s = (*r_.spans_)[static_cast<std::size_t>(idx_)];
      s.end_ns = now_ns();
      r_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& r_;
    std::int32_t idx_ = -1;
  };

 private:
  std::vector<Span>* spans_;
  std::int32_t open_ = -1;
};

std::unique_ptr<ipd::core::EngineBase> make_engine(const Input& in) {
  if (in.spec.shard_bits < 0) {
    return std::make_unique<ipd::core::IpdEngine>(in.params);
  }
  ipd::core::ShardedEngineConfig cfg;
  cfg.shard_bits = in.spec.shard_bits;
  cfg.ingest_threads = in.spec.ingest_threads;
  return std::make_unique<ipd::core::ShardedEngine>(in.params, cfg);
}

// The producers' streams merged by export time: one reader thread's view
// of datagrams that the live run spreads over several rings.
std::vector<std::pair<std::size_t, const Datagram*>> merged(
    const std::vector<Stream>& streams) {
  std::vector<std::pair<std::size_t, const Datagram*>> out;
  for (std::size_t p = 0; p < streams.size(); ++p) {
    for (const auto& d : streams[p].dgrams) out.emplace_back(p, &d);
  }
  std::stable_sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second->ts < b.second->ts;
  });
  return out;
}

}  // namespace

ReplayResult replay(const Input& in, bool traced) {
  ReplayResult res;
  Recorder rec(traced ? &res.spans : nullptr);
  if (traced) res.spans.reserve(1 << 20);
  ipd::obs::MetricsRegistry registry;  // outlives the engine
  auto engine = make_engine(in);
  if (traced) engine->attach_metrics(registry);
  const ipd::core::IpdParams& params = engine->params();

  ipd::netflow::FlowBatch pending;
  ipd::util::Timestamp next_cycle = 0;
  ipd::util::Timestamp next_snapshot = 0;
  bool clock_started = false;
  ipd::core::Snapshot last_snapshot;

  const auto flush = [&] {
    if (pending.empty()) return;
    Recorder::Scope s(rec, "core.apply");
    engine->apply_batch(pending);
    pending.clear();
  };
  const auto publish = [&](ipd::util::Timestamp ts) {
    std::int64_t t0 = now_ns();
    {
      Recorder::Scope s(rec, "core.snapshot");
      last_snapshot = ipd::core::take_snapshot(*engine, ts);
    }
    const std::int64_t t1 = now_ns();
    {
      Recorder::Scope s(rec, "core.lpm_build");
      res.table = std::make_shared<const ipd::core::LpmTable>(
          ipd::core::LpmTable::from_snapshot(last_snapshot));
    }
    const std::int64_t t2 = now_ns();
    res.snapshot_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
    res.lpm_build_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
    res.lpm_rows = res.table->size();
  };

  ipd::netflow::StatisticalTimeConfig st_cfg;
  st_cfg.activity_threshold = 1;
  st_cfg.bucket_len = params.t;
  ipd::netflow::StatisticalTime stat_time(
      st_cfg, [&](const ipd::netflow::FlowRecord& record) {
        pending.push_back(record);
        if (!clock_started) {
          next_cycle = ipd::util::bucket_start(record.ts, params.t) + params.t;
          next_snapshot =
              ipd::util::bucket_start(record.ts, kSnapshotLen) + kSnapshotLen;
          clock_started = true;
        }
        if (record.ts >= next_cycle || record.ts >= next_snapshot) {
          flush();
          while (record.ts >= next_cycle) {
            Recorder::Scope s(rec, "core.cycle");
            res.cycles.push_back(engine->run_cycle(next_cycle));
            res.peak_memory_bytes =
                std::max(res.peak_memory_bytes, res.cycles.back().memory_bytes);
            next_cycle += params.t;
          }
          while (record.ts >= next_snapshot) {
            publish(next_snapshot);
            next_snapshot += kSnapshotLen;
          }
        } else if (pending.size() >= kEngineBatch) {
          flush();
        }
      });

  std::vector<ipd::netflow::ipfix::Parser> parsers(in.warm.size());
  const std::int64_t wall0 = now_ns();
  for (const auto* streams : {&in.warm, &in.window}) {
    for (const auto& [p, d] : merged(*streams)) {
      ipd::netflow::FlowBatch batch;
      bool ok = false;
      {
        Recorder::Scope s(rec, "netflow.decode");
        const auto bytes = (*streams)[p].view(*d);
        ok = in.spec.proto == Proto::V5
                 ? ipd::netflow::v5::decode_batch(bytes, d->exporter, batch)
                       .has_value()
                 : parsers[p].parse_batch(bytes, d->exporter, batch);
      }
      if (!ok) {
        ++res.malformed;
        continue;
      }
      Recorder::Scope s(rec, "collector.stat_time");
      for (std::size_t k = 0; k < batch.size(); ++k) {
        stat_time.offer(batch.record(k));
      }
      res.flows += batch.size();
    }
  }
  {
    Recorder::Scope s(rec, "collector.stat_time");
    stat_time.flush();
  }
  flush();
  if (clock_started) publish(next_snapshot);
  res.wall_s = static_cast<double>(now_ns() - wall0) * 1e-9;

  if (const auto* sharded =
          dynamic_cast<const ipd::core::ShardedEngine*>(engine.get())) {
    res.parallel_units = sharded->parallel_units(ipd::net::Family::V4) +
                         sharded->parallel_units(ipd::net::Family::V6);
  }
  for (const auto& row : last_snapshot) {
    res.table3 += ipd::core::format_row(row);
    res.table3 += '\n';
  }
  return res;
}

}  // namespace pipebench
