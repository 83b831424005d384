#include "analysis/introspection.hpp"

#include <algorithm>
#include <stdexcept>

#include <chrono>
#include <thread>

#include "analysis/health.hpp"
#include "core/decision_log.hpp"
#include "core/output.hpp"
#include "core/engine.hpp"
#include "obs/cpu_profiler.hpp"
#include "obs/export.hpp"
#include "obs/perf_counters.hpp"
#include "obs/thread_stats.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace ipd::analysis {

namespace {

/// Parse an optional numeric query parameter; invalid input throws (the
/// caller maps it to a 400).
std::size_t uint_param(const obs::HttpRequest& request, std::string_view key,
                       std::size_t fallback, std::size_t max_value) {
  const auto raw = request.query_param(key);
  if (!raw) return fallback;
  return static_cast<std::size_t>(util::parse_uint(*raw, max_value));
}

std::string range_row_json(const core::RangeOutput& row) {
  std::string out = util::format(
      "{\"range\":\"%s\",\"state\":\"%s\",\"s_ingress\":%.6g,"
      "\"s_ipcount\":%.6g,\"n_cidr\":%.6g",
      row.range.to_string().c_str(),
      row.classified ? "classified" : "monitoring", row.s_ingress,
      row.s_ipcount, row.n_cidr);
  if (row.ingress.valid()) {
    out += ",\"ingress\":\"" + util::json_escape(row.ingress.to_string()) + "\"";
  }
  out += '}';
  return out;
}

obs::HttpResponse bad_request(const std::string& what) {
  return obs::HttpResponse::json(
      "{\"error\":\"" + util::json_escape(what) + "\"}", 400);
}

obs::HttpResponse not_attached(const char* what) {
  return obs::HttpResponse::json(
      util::format("{\"error\":\"no %s attached\"}", what), 503);
}

}  // namespace

std::string flow_journey_json(const obs::FlowJourney& journey,
                              const core::DecisionLog* log) {
  std::string decisions;
  if (log != nullptr) {
    for (const auto& event : log->events_covering(journey.ip)) {
      if (event.ts < journey.first_ts) continue;
      if (!decisions.empty()) decisions += ',';
      decisions += core::to_json(event);
    }
  }
  return obs::to_json(journey, decisions);
}

std::string flow_journey_text(const obs::FlowJourney& journey,
                              const core::DecisionLog* log) {
  std::string out = util::format(
      "%016llx ip=%s link=%u/%u ts=%lld hops=",
      static_cast<unsigned long long>(journey.id),
      journey.ip.to_string().c_str(),
      static_cast<unsigned>(journey.link.router),
      static_cast<unsigned>(journey.link.iface),
      static_cast<long long>(journey.first_ts));
  std::int64_t decode_ns = 0;
  std::int64_t apply_ns = 0;
  bool first = true;
  for (const obs::FlowHop& hop : journey.hops) {
    if (!first) out += '>';
    first = false;
    out += obs::to_string(hop.kind);
    if (hop.kind == obs::FlowHopKind::Decode && decode_ns == 0) {
      decode_ns = hop.mono_ns;
    } else if (hop.kind == obs::FlowHopKind::TrieApply) {
      apply_ns = hop.mono_ns;
    }
  }
  if (decode_ns != 0 && apply_ns >= decode_ns) {
    out += util::format(" lat_ms=%.3f",
                        static_cast<double>(apply_ns - decode_ns) * 1e-6);
  }
  std::size_t decided = 0;
  if (log != nullptr) {
    for (const auto& event : log->events_covering(journey.ip)) {
      if (event.ts >= journey.first_ts) ++decided;
    }
  }
  out += util::format(" decisions=%zu", decided);
  return out;
}

IntrospectionServer::IntrospectionServer(core::IpdEngine& engine,
                                         obs::InstrumentedMutex& engine_mutex,
                                         IntrospectionConfig config)
    : engine_(engine), engine_mutex_(engine_mutex), config_(config) {
  server_.handle("/", [this](const obs::HttpRequest& r) {
    return handle_index(r);
  });
  server_.handle("/healthz", [this](const obs::HttpRequest& r) {
    return handle_healthz(r);
  });
  server_.handle("/metrics", [this](const obs::HttpRequest& r) {
    return handle_metrics(r);
  });
  server_.handle("/ranges", [this](const obs::HttpRequest& r) {
    return handle_ranges(r);
  });
  server_.handle("/explain", [this](const obs::HttpRequest& r) {
    return handle_explain(r);
  });
  server_.handle("/decisions", [this](const obs::HttpRequest& r) {
    return handle_decisions(r);
  });
  server_.handle("/trace", [this](const obs::HttpRequest& r) {
    return handle_trace(r);
  });
  server_.handle("/health", [this](const obs::HttpRequest& r) {
    return handle_health(r);
  });
  server_.handle("/alerts", [this](const obs::HttpRequest& r) {
    return handle_alerts(r);
  });
  server_.handle("/timeseries", [this](const obs::HttpRequest& r) {
    return handle_timeseries(r);
  });
  server_.handle("/perf", [this](const obs::HttpRequest& r) {
    return handle_perf(r);
  });
  server_.handle("/profile", [this](const obs::HttpRequest& r) {
    return handle_profile(r);
  });
  server_.handle("/flows", [this](const obs::HttpRequest& r) {
    return handle_flows(r);
  });
  server_.handle("/snapshot", [this](const obs::HttpRequest& r) {
    return handle_snapshot(r);
  });
  server_.handle("/threads", [this](const obs::HttpRequest& r) {
    return handle_threads(r);
  });
  server_.handle("/locks", [this](const obs::HttpRequest& r) {
    return handle_locks(r);
  });
  server_.handle("/shards", [this](const obs::HttpRequest& r) {
    return handle_shards(r);
  });
}

void IntrospectionServer::register_heartbeat(obs::Watchdog& watchdog,
                                             std::int64_t budget_ms) {
  const obs::Watchdog::TaskId task =
      watchdog.register_task("http.serve", budget_ms);
  obs::Watchdog* wd = &watchdog;
  server_.set_loop_tick([wd, task] { wd->beat(task); });
}

bool IntrospectionServer::start(std::uint16_t port, std::string* error) {
  return server_.start(port, error);
}

obs::HttpResponse IntrospectionServer::handle_index(const obs::HttpRequest&) {
  return obs::HttpResponse::json(
      "{\"endpoints\":[\"/healthz\",\"/metrics\",\"/ranges\","
      "\"/explain?ip=A.B.C.D\",\"/decisions\",\"/trace\",\"/health\","
      "\"/alerts\",\"/timeseries?name=<metric>&from=<ts>\",\"/perf\","
      "\"/profile?seconds=N&hz=N&clock=cpu|wall\","
      "\"/flows?limit=N&format=json|text\","
      "\"/threads?format=json|text\","
      "\"/locks?limit=N&format=json|text\",\"/snapshot\",\"/shards\"]}");
}

obs::HttpResponse IntrospectionServer::handle_healthz(const obs::HttpRequest&) {
  core::EngineStats stats;
  {
    const std::lock_guard<obs::InstrumentedMutex> lock(engine_mutex_);
    stats = engine_.stats();
  }
  return obs::HttpResponse::json(util::format(
      "{\"status\":\"ok\",\"flows_ingested\":%llu,\"cycles_run\":%llu,"
      "\"requests_served\":%llu}",
      static_cast<unsigned long long>(stats.flows_ingested),
      static_cast<unsigned long long>(stats.cycles_run),
      static_cast<unsigned long long>(requests_served())));
}

obs::HttpResponse IntrospectionServer::handle_metrics(const obs::HttpRequest&) {
  const obs::MetricsRegistry* registry = engine_.observers().metrics;
  if (registry == nullptr) return not_attached("metrics registry");
  // flush_ingest() publishes the delta-buffered stage-1 counters so a
  // scrape between cycles is not up to one cycle stale.
  std::string body;
  {
    const std::lock_guard<obs::InstrumentedMutex> lock(engine_mutex_);
    engine_.flush_ingest_metrics();
    body = obs::to_prometheus(*registry);
  }
  obs::HttpResponse response;
  response.content_type = "text/plain; version=0.0.4; charset=utf-8";
  response.body = std::move(body);
  return response;
}

obs::HttpResponse IntrospectionServer::handle_ranges(
    const obs::HttpRequest& request) {
  std::size_t offset = 0;
  std::size_t limit = 0;
  bool classified_only = false;
  try {
    offset = uint_param(request, "offset", 0, SIZE_MAX / 2);
    limit = uint_param(request, "limit", config_.default_page,
                       SIZE_MAX / 2);
    classified_only = uint_param(request, "classified", 0, 1) != 0;
  } catch (const std::exception& e) {
    return bad_request(e.what());
  }
  limit = std::min(limit, config_.max_page);

  core::Snapshot snapshot;
  {
    const std::lock_guard<obs::InstrumentedMutex> lock(engine_mutex_);
    snapshot = core::take_snapshot(engine_, 0, classified_only);
  }
  const std::size_t total = snapshot.size();
  const std::size_t begin = std::min(offset, total);
  const std::size_t end = std::min(begin + limit, total);

  std::string body = util::format(
      "{\"total\":%zu,\"offset\":%zu,\"limit\":%zu,\"ranges\":[", total,
      offset, limit);
  for (std::size_t i = begin; i < end; ++i) {
    if (i != begin) body += ',';
    body += range_row_json(snapshot[i]);
  }
  body += "]}";
  return obs::HttpResponse::json(std::move(body));
}

obs::HttpResponse IntrospectionServer::handle_explain(
    const obs::HttpRequest& request) {
  const auto ip_text = request.query_param("ip");
  if (!ip_text) return bad_request("missing required query parameter: ip");
  net::IpAddress ip;
  try {
    ip = net::IpAddress::from_string(*ip_text);
  } catch (const std::exception& e) {
    return bad_request(e.what());
  }

  std::string body;
  {
    const std::lock_guard<obs::InstrumentedMutex> lock(engine_mutex_);
    const core::RangeNode& leaf = engine_.locate(ip);
    const core::IpdParams& params = engine_.params();
    const double n_cidr =
        params.n_cidr(ip.family(), leaf.prefix().length());
    const double total = leaf.counts().total();
    double share = 0.0;
    std::string ingress;
    if (leaf.state() == core::RangeNode::State::Classified) {
      share = leaf.counts().share_of(leaf.ingress());
      ingress = leaf.ingress().to_string();
    } else if (total > 0.0) {
      const topology::LinkId top = leaf.counts().top_link();
      share = leaf.counts().count_for(top) / total;
      ingress = core::IngressId(top).to_string();
    }
    body = util::format(
        "{\"ip\":\"%s\",\"range\":\"%s\",\"state\":\"%s\",\"samples\":%.6g,"
        "\"share\":%.6g,\"last_update\":%lld,\"node_index\":%lu",
        ip.to_string().c_str(), leaf.prefix().to_string().c_str(),
        leaf.state() == core::RangeNode::State::Classified ? "classified"
                                                           : "monitoring",
        total, share, static_cast<long long>(leaf.last_update()),
        static_cast<unsigned long>(leaf.index()));
    if (!ingress.empty()) {
      body += ",\"ingress\":\"" + util::json_escape(ingress) + "\"";
    }
    body += util::format(
        ",\"thresholds\":{\"n_cidr\":%.6g,\"q\":%.6g,\"t\":%lld,\"e\":%lld}",
        n_cidr, params.q, static_cast<long long>(params.t),
        static_cast<long long>(params.e));
  }

  body += ",\"events\":[";
  if (const core::DecisionLog* log = engine_.observers().decisions) {
    const auto events = log->events_covering(ip);
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (i != 0) body += ',';
      body += core::to_json(events[i]);
    }
    body += util::format("],\"events_held\":%zu}", events.size());
  } else {
    body += "],\"events_held\":0}";
  }
  return obs::HttpResponse::json(std::move(body));
}

obs::HttpResponse IntrospectionServer::handle_decisions(
    const obs::HttpRequest& request) {
  const core::DecisionLog* log = engine_.observers().decisions;
  if (log == nullptr) return not_attached("decision log");
  std::size_t limit = 0;
  try {
    limit = uint_param(request, "limit", config_.default_page, SIZE_MAX / 2);
  } catch (const std::exception& e) {
    return bad_request(e.what());
  }
  auto events = log->snapshot();
  if (events.size() > limit) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(limit));
  }
  std::string body = util::format(
      "{\"total_recorded\":%llu,\"dropped\":%llu,\"events\":[",
      static_cast<unsigned long long>(log->total_recorded()),
      static_cast<unsigned long long>(log->dropped()));
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (i != 0) body += ',';
    body += core::to_json(events[i]);
  }
  body += "]}";
  return obs::HttpResponse::json(std::move(body));
}

obs::HttpResponse IntrospectionServer::handle_trace(
    const obs::HttpRequest& request) {
  const obs::Tracer* tracer = engine_.observers().tracer;
  if (tracer == nullptr) return not_attached("tracer");
  std::size_t limit = 0;
  try {
    limit = uint_param(request, "limit", config_.trace_tail, SIZE_MAX / 2);
  } catch (const std::exception& e) {
    return bad_request(e.what());
  }
  return obs::HttpResponse::json(tracer->to_json(limit));
}

obs::HttpResponse IntrospectionServer::handle_health(const obs::HttpRequest&) {
  if (health_ == nullptr) return not_attached("health engine");
  std::string body = util::format(
      "{\"status\":\"%s\",\"alerts_active\":%zu,\"alerts_raised\":%llu,"
      "\"alerts_resolved\":%llu,\"evaluations\":%llu,\"components\":[",
      to_string(health_->overall()), health_->active_alerts().size(),
      static_cast<unsigned long long>(health_->alerts_raised()),
      static_cast<unsigned long long>(health_->alerts_resolved()),
      static_cast<unsigned long long>(health_->evaluations()));
  const auto components = health_->components();
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (i != 0) body += ',';
    body += util::format(
        "{\"name\":\"%s\",\"state\":\"%s\",\"reason\":\"%s\"}",
        util::json_escape(components[i].name).c_str(),
        to_string(components[i].state),
        util::json_escape(components[i].reason).c_str());
  }
  body += "]}";
  return obs::HttpResponse::json(std::move(body));
}

obs::HttpResponse IntrospectionServer::handle_alerts(
    const obs::HttpRequest& request) {
  if (health_ == nullptr) return not_attached("health engine");
  std::size_t limit = 0;
  try {
    limit = uint_param(request, "limit", config_.default_page, SIZE_MAX / 2);
  } catch (const std::exception& e) {
    return bad_request(e.what());
  }
  const auto render = [limit](const std::vector<Alert>& alerts) {
    std::string out = "[";
    const std::size_t begin =
        alerts.size() > limit ? alerts.size() - limit : 0;
    for (std::size_t i = begin; i < alerts.size(); ++i) {
      if (i != begin) out += ',';
      out += to_json(alerts[i]);
    }
    out += ']';
    return out;
  };
  std::string body = util::format(
      "{\"raised\":%llu,\"resolved\":%llu,\"active\":",
      static_cast<unsigned long long>(health_->alerts_raised()),
      static_cast<unsigned long long>(health_->alerts_resolved()));
  body += render(health_->active_alerts());
  body += ",\"recent\":";
  body += render(health_->recent_alerts());
  body += '}';
  return obs::HttpResponse::json(std::move(body));
}

obs::HttpResponse IntrospectionServer::handle_timeseries(
    const obs::HttpRequest& request) {
  if (timeseries_ == nullptr) return not_attached("time-series store");
  const auto name = request.query_param("name");
  if (!name) return bad_request("missing required query parameter: name");
  util::Timestamp from = 0;
  try {
    from = static_cast<util::Timestamp>(
        uint_param(request, "from", 0, static_cast<std::size_t>(INT64_MAX)));
  } catch (const std::exception& e) {
    return bad_request(e.what());
  }
  auto series = timeseries_->series_named(*name);
  if (series.empty()) {
    return obs::HttpResponse::json(
        "{\"error\":\"no such series: " + util::json_escape(*name) + "\"}",
        404);
  }
  // Streamed: a long-running deployment holds hours of points per label
  // set, and one contiguous response body would scale with that history.
  // One chunk per series bounds the resident rendering to a single
  // series' points. The producer runs synchronously on the serving
  // thread, so the captured store pointer outlives the request.
  const obs::TimeSeriesStore* store = timeseries_;
  return obs::HttpResponse::stream(
      "application/json",
      [store, series = std::move(series), name = *name,
       from](const obs::HttpResponse::ChunkWriter& write) {
        write(util::format("{\"name\":\"%s\",\"series\":[",
                           util::json_escape(name).c_str()));
        for (std::size_t i = 0; i < series.size(); ++i) {
          std::string chunk = i != 0 ? "," : "";
          chunk += "{\"labels\":{";
          for (std::size_t j = 0; j < series[i].labels.size(); ++j) {
            if (j != 0) chunk += ',';
            chunk += '"';
            chunk += util::json_escape(series[i].labels[j].first);
            chunk += "\":\"";
            chunk += util::json_escape(series[i].labels[j].second);
            chunk += '"';
          }
          chunk += "},\"points\":[";
          const auto points = store->points(series[i].id, from);
          for (std::size_t j = 0; j < points.size(); ++j) {
            if (j != 0) chunk += ',';
            chunk += util::format("[%lld,%.9g]",
                                  static_cast<long long>(points[j].ts),
                                  points[j].value);
          }
          chunk += "]}";
          if (!write(chunk)) return;  // peer gone; stop rendering
        }
        write("]}");
      });
}

obs::HttpResponse IntrospectionServer::handle_perf(const obs::HttpRequest&) {
  const obs::PerfCounters* perf = engine_.observers().perf;
  if (perf == nullptr) return not_attached("perf counters");
  return obs::HttpResponse::json(perf->to_json());
}

obs::HttpResponse IntrospectionServer::handle_snapshot(const obs::HttpRequest&) {
  if (snapshots_ == nullptr) return not_attached("snapshot telemetry");
  const core::SnapshotTelemetry::State s = snapshots_->state();
  return obs::HttpResponse::json(util::format(
      "{\"saves\":%llu,\"restores\":%llu,\"errors\":%llu,"
      "\"last_bytes\":%llu,\"last_save_seconds\":%.6f,"
      "\"last_restore_seconds\":%.6f,\"last_saved_at\":%lld,"
      "\"age_seconds\":%.1f,\"path\":\"%s\",\"last_error\":\"%s\"}",
      static_cast<unsigned long long>(s.saves),
      static_cast<unsigned long long>(s.restores),
      static_cast<unsigned long long>(s.errors),
      static_cast<unsigned long long>(s.last_bytes), s.last_save_seconds,
      s.last_restore_seconds, static_cast<long long>(s.last_saved_at),
      s.age_seconds, util::json_escape(s.path).c_str(),
      util::json_escape(s.last_error).c_str()));
}

obs::HttpResponse IntrospectionServer::handle_profile(
    const obs::HttpRequest& request) {
  std::size_t seconds = 0;
  std::size_t hz = 0;
  obs::CpuProfilerConfig config;
  try {
    seconds = uint_param(request, "seconds", 1, config_.profile_max_seconds);
    hz = uint_param(request, "hz",
                    static_cast<std::size_t>(config_.profile_default_hz), 1000);
  } catch (const std::exception& e) {
    return bad_request(e.what());
  }
  if (seconds == 0 || hz == 0) {
    return bad_request("seconds and hz must be >= 1");
  }
  if (const auto clock = request.query_param("clock")) {
    if (*clock == "cpu") {
      config.clock = obs::CpuProfilerConfig::Clock::Cpu;
    } else if (*clock == "wall") {
      config.clock = obs::CpuProfilerConfig::Clock::Wall;
    } else {
      return bad_request("clock must be cpu or wall");
    }
  }
  config.hz = static_cast<int>(hz);
  if (obs::CpuProfiler::active() != nullptr) {
    return obs::HttpResponse::json(
        "{\"error\":\"another profiler is active\"}", 409);
  }
  // The profiler is process-global, so the sampled window covers every
  // thread; this handler blocks the (single) serving thread meanwhile.
  obs::CpuProfiler profiler(config);
  std::string error;
  if (!profiler.start(&error)) {
    const bool busy = error == "another profiler is active";
    return obs::HttpResponse::json(
        "{\"error\":\"" + util::json_escape(error) + "\"}", busy ? 409 : 503);
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  profiler.stop();
  // Streamed: folded stacks from a busy multi-thread process routinely
  // exceed tens of KiB; ship line batches instead of one giant string
  // copy through the response object.
  std::string folded = profiler.folded();
  return obs::HttpResponse::stream(
      "text/plain; charset=utf-8",
      [folded = std::move(folded)](const obs::HttpResponse::ChunkWriter& write) {
        constexpr std::size_t kChunk = 16 * 1024;
        for (std::size_t off = 0; off < folded.size(); off += kChunk) {
          if (!write(std::string_view(folded).substr(off, kChunk))) return;
        }
      });
}

obs::HttpResponse IntrospectionServer::handle_flows(
    const obs::HttpRequest& request) {
  const core::EngineObservers observers = engine_.observers();
  const obs::FlowTracer* tracer = observers.flow_trace;
  if (tracer == nullptr) return not_attached("flow tracer");
  std::size_t limit = 0;
  try {
    limit = uint_param(request, "limit", 0, SIZE_MAX / 2);
  } catch (const std::exception& e) {
    return bad_request(e.what());
  }
  bool text = false;
  if (const auto format = request.query_param("format")) {
    if (*format == "text") {
      text = true;
    } else if (*format != "json") {
      return bad_request("format must be json or text");
    }
  }

  auto journeys = tracer->journeys(limit);
  // The decision log is internally synchronized, so correlation happens
  // here without the engine mutex — /flows never stalls ingest.
  const core::DecisionLog* log = observers.decisions;

  if (text) {
    return obs::HttpResponse::stream(
        "text/plain; charset=utf-8",
        [journeys = std::move(journeys),
         log](const obs::HttpResponse::ChunkWriter& write) {
          for (const obs::FlowJourney& journey : journeys) {
            if (!write(flow_journey_text(journey, log) + "\n")) return;
          }
        });
  }

  const std::string head = util::format(
      "{\"sample_period\":%llu,\"flows_sampled\":%llu,\"hops_recorded\":%llu,"
      "\"evicted\":%llu,\"returned\":%zu,\"flows\":[",
      static_cast<unsigned long long>(tracer->sample_period()),
      static_cast<unsigned long long>(tracer->flows_sampled()),
      static_cast<unsigned long long>(tracer->hops_recorded()),
      static_cast<unsigned long long>(tracer->journeys_evicted()),
      journeys.size());
  // Streamed one journey per chunk: each journey with its correlated
  // decisions can run to a few KiB, and the ring holds hundreds.
  return obs::HttpResponse::stream(
      "application/json",
      [head, journeys = std::move(journeys),
       log](const obs::HttpResponse::ChunkWriter& write) {
        if (!write(head)) return;
        for (std::size_t i = 0; i < journeys.size(); ++i) {
          std::string chunk = i != 0 ? "," : "";
          chunk += flow_journey_json(journeys[i], log);
          if (!write(chunk)) return;
        }
        write("]}");
      });
}

obs::HttpResponse IntrospectionServer::handle_threads(
    const obs::HttpRequest& request) {
  bool text = false;
  if (const auto format = request.query_param("format")) {
    if (*format == "text") {
      text = true;
    } else if (*format != "json") {
      return bad_request("format must be json or text");
    }
  }
  // Sampling reads /proc only — no engine mutex, never stalls ingest.
  auto threads = obs::sample_process_threads();

  if (text) {
    std::string body = obs::threads_text(threads);
    if (watchdog_ != nullptr) {
      body += "\nwatchdog tasks:\n";
      for (const obs::Watchdog::TaskView& task : watchdog_->tasks()) {
        body += util::format(
            "  %-16s budget_ms=%lld %s%s\n", task.name.c_str(),
            static_cast<long long>(task.budget_ms),
            task.armed ? "armed" : "disarmed", task.stalled ? " STALLED" : "");
      }
    }
    return obs::HttpResponse::stream(
        "text/plain; charset=utf-8",
        [body = std::move(body)](const obs::HttpResponse::ChunkWriter& write) {
          write(body);
        });
  }

  // The watchdog state (tasks + recent stall reports, each carrying a
  // captured stack) rides along so one curl answers "what is every thread
  // doing and is anything stuck".
  std::string body = util::format("{\"count\":%zu,\"threads\":",
                                  threads.size());
  body += obs::threads_json(threads);
  body += ",\"watchdog\":";
  body += watchdog_ != nullptr ? watchdog_->to_json() : "null";
  body += '}';
  return obs::HttpResponse::stream(
      "application/json",
      [body = std::move(body)](const obs::HttpResponse::ChunkWriter& write) {
        write(body);
      });
}

obs::HttpResponse IntrospectionServer::handle_locks(
    const obs::HttpRequest& request) {
  std::size_t limit = 0;
  try {
    limit = uint_param(request, "limit", 0, SIZE_MAX / 2);
  } catch (const std::exception& e) {
    return bad_request(e.what());
  }
  bool text = false;
  if (const auto format = request.query_param("format")) {
    if (*format == "text") {
      text = true;
    } else if (*format != "json") {
      return bad_request("format must be json or text");
    }
  }
  // The lock registry is process-global and internally synchronized; site
  // snapshots are relaxed reads, so /locks itself perturbs nothing.
  std::string body = text ? obs::lock_sites_text(limit)
                          : obs::lock_sites_json();
  return obs::HttpResponse::stream(
      text ? "text/plain; charset=utf-8" : "application/json",
      [body = std::move(body)](const obs::HttpResponse::ChunkWriter& write) {
        write(body);
      });
}

obs::HttpResponse IntrospectionServer::handle_shards(const obs::HttpRequest&) {
  // shards_json() takes the engine's structure lock; the engine mutex on
  // top keeps the cut/load view consistent with the other engine-reading
  // handlers.
  std::string body;
  {
    const std::lock_guard<obs::InstrumentedMutex> lock(engine_mutex_);
    body = engine_.shards_json();
  }
  return obs::HttpResponse::json(std::move(body));
}

}  // namespace ipd::analysis
