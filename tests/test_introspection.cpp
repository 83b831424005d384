// Introspection endpoints against a live engine: /healthz, /metrics,
// /ranges pagination, /explain (covering range + decision history +
// thresholds), /decisions, /trace, /perf, /profile, and the 4xx paths.
#include "analysis/introspection.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "analysis/health.hpp"
#include "core/decision_log.hpp"
#include "core/engine.hpp"
#include "json_check.hpp"
#include "obs/cpu_profiler.hpp"
#include "obs/flow_trace.hpp"
#include "obs/lock_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_counters.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

#if defined(__SANITIZE_THREAD__)
#define IPD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define IPD_TSAN 1
#endif
#endif

namespace ipd::analysis {
namespace {

using ::ipd::testing::JsonChecker;

/// GET `target` from the local server; returns the full wire response.
std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

/// The response body (after the blank line), with chunked
/// transfer-encoding framing removed when the head announces it —
/// streamed endpoints (/timeseries, /profile, /flows) use it.
std::string body_of(const std::string& response) {
  const std::size_t at = response.find("\r\n\r\n");
  if (at == std::string::npos) return {};
  const std::string head = response.substr(0, at);
  std::string raw = response.substr(at + 4);
  if (head.find("Transfer-Encoding: chunked") == std::string::npos) return raw;
  std::string body;
  std::size_t pos = 0;
  while (pos < raw.size()) {
    const std::size_t eol = raw.find("\r\n", pos);
    if (eol == std::string::npos) break;
    const std::size_t len = std::strtoull(raw.c_str() + pos, nullptr, 16);
    if (len == 0) break;
    body += raw.substr(eol + 2, len);
    pos = eol + 2 + len + 2;  // skip chunk data and trailing CRLF
  }
  return body;
}

class IntrospectionTest : public ::testing::Test {
 protected:
  IntrospectionTest() : engine_(make_params()), server_(engine_, mutex_) {}

  static core::IpdParams make_params() {
    core::IpdParams params;
    params.ncidr_factor4 = 0.001;  // classify quickly on tiny traffic
    params.ncidr_factor6 = 1e-7;
    return params;
  }

  void SetUp() override {
    observers_.metrics = &registry_;
    observers_.decisions = &decision_log_;
    observers_.tracer = &tracer_;
    engine_.observe(observers_);
    // Two ingresses in disjoint halves: the root splits, then each side
    // classifies — so the partition has several ranges and the decision
    // log has split + classify history.
    feed("10.0.0.1", {1, 1}, 60);
    feed("10.0.0.2", {1, 1}, 60);
    feed("200.0.0.1", {2, 1}, 60);
    {
      std::lock_guard<obs::InstrumentedMutex> lock(mutex_);
      engine_.run_cycle(60);
      engine_.run_cycle(120);
    }
    std::string error;
    ASSERT_TRUE(server_.start(0, &error)) << error;  // ephemeral port
  }

  void TearDown() override { server_.stop(); }

  void feed(const char* ip, topology::LinkId link, int n) {
    const net::IpAddress addr = net::IpAddress::from_string(ip);
    std::lock_guard<obs::InstrumentedMutex> lock(mutex_);
    for (int i = 0; i < n; ++i) engine_.ingest(30, addr, link, 1);
  }

  obs::MetricsRegistry registry_;
  core::DecisionLog decision_log_;
  obs::Tracer tracer_;
  // Derived fixtures add sinks here before SetUp() hands the bundle over.
  core::EngineObservers observers_;
  core::IpdEngine engine_;
  obs::InstrumentedMutex mutex_{"test.engine"};
  IntrospectionServer server_;
};

TEST_F(IntrospectionTest, HealthzReportsEngineCounters) {
  const std::string response = http_get(server_.port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(body.find("\"flows_ingested\""), std::string::npos);
  EXPECT_NE(body.find("\"cycles_run\""), std::string::npos);
}

TEST_F(IntrospectionTest, MetricsIsPrometheusExposition) {
  const std::string response = http_get(server_.port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_NE(body.find("# TYPE"), std::string::npos);
  EXPECT_NE(body.find("ipd_ingest_flows_total"), std::string::npos);
}

TEST_F(IntrospectionTest, RangesPaginates) {
  const std::string all = body_of(http_get(server_.port(), "/ranges"));
  EXPECT_TRUE(JsonChecker(all).valid()) << all;
  EXPECT_NE(all.find("\"total\":"), std::string::npos);
  EXPECT_NE(all.find("\"ranges\":["), std::string::npos);

  // limit=1 returns exactly one row; offset=1 returns a different one.
  const std::string page1 =
      body_of(http_get(server_.port(), "/ranges?limit=1"));
  EXPECT_TRUE(JsonChecker(page1).valid()) << page1;
  EXPECT_NE(page1.find("\"limit\":1"), std::string::npos);
  const std::string page2 =
      body_of(http_get(server_.port(), "/ranges?limit=1&offset=1"));
  EXPECT_TRUE(JsonChecker(page2).valid()) << page2;
  EXPECT_NE(page2.find("\"offset\":1"), std::string::npos);
  EXPECT_NE(page1, page2);

  // Beyond-the-end offset yields an empty page, not an error.
  const std::string beyond =
      body_of(http_get(server_.port(), "/ranges?offset=100000"));
  EXPECT_TRUE(JsonChecker(beyond).valid()) << beyond;
  EXPECT_NE(beyond.find("\"ranges\":[]"), std::string::npos);
}

TEST_F(IntrospectionTest, RangesRejectsBadPagination) {
  const std::string response =
      http_get(server_.port(), "/ranges?limit=banana");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos);
}

TEST_F(IntrospectionTest, ExplainReturnsCoveringRangeAndHistory) {
  const std::string response =
      http_get(server_.port(), "/explain?ip=10.0.0.1");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"ip\":\"10.0.0.1\""), std::string::npos);
  EXPECT_NE(body.find("\"range\":"), std::string::npos);
  // The paper's stage-2 thresholds the decisions were tested against.
  EXPECT_NE(body.find("\"thresholds\":"), std::string::npos);
  EXPECT_NE(body.find("\"n_cidr\":"), std::string::npos);
  EXPECT_NE(body.find("\"q\":0.95"), std::string::npos);
  // At least one lifecycle event with its quantitative reason.
  EXPECT_NE(body.find("\"events\":["), std::string::npos);
  EXPECT_NE(body.find("\"kind\":"), std::string::npos);
  EXPECT_NE(body.find("\"reason\":"), std::string::npos);
}

TEST_F(IntrospectionTest, ExplainRejectsMissingOrBadIp) {
  EXPECT_NE(http_get(server_.port(), "/explain").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(
      http_get(server_.port(), "/explain?ip=not-an-ip").find("HTTP/1.1 400"),
      std::string::npos);
}

TEST_F(IntrospectionTest, DecisionsReturnsTail) {
  const std::string body = body_of(http_get(server_.port(), "/decisions"));
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"total_recorded\":"), std::string::npos);
  EXPECT_NE(body.find("\"events\":["), std::string::npos);
  // The seeded workload split the root, so history is non-empty.
  EXPECT_NE(body.find("\"kind\":\"split\""), std::string::npos);

  const std::string limited =
      body_of(http_get(server_.port(), "/decisions?limit=1"));
  EXPECT_TRUE(JsonChecker(limited).valid()) << limited;
}

TEST_F(IntrospectionTest, TraceIsChromeTraceEventJson) {
  const std::string body = body_of(http_get(server_.port(), "/trace"));
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(body.find("stage2.cycle"), std::string::npos);
}

/// IntrospectionTest plus the PR-3 attachments: a TSDB fed from the
/// registry and a health engine consuming the engine's cycle deltas.
class HealthEndpointsTest : public IntrospectionTest {
 protected:
  HealthEndpointsTest() : health_(timeseries_) {}

  void SetUp() override {
    observers_.cycle_deltas = &cycle_deltas_;
    health_.install_default_rules(make_params());
    health_.attach_cycle_deltas(cycle_deltas_);
    health_.bind_metrics(registry_);
    server_.attach_health(health_);
    server_.attach_timeseries(timeseries_);
    IntrospectionTest::SetUp();  // seeds traffic, runs two cycles, starts
    timeseries_.ingest(registry_, 120);
    timeseries_.ingest(registry_, 240);
    health_.evaluate(240);
  }

  obs::TimeSeriesStore timeseries_;
  core::CycleDeltaLog cycle_deltas_;
  HealthEngine health_;
};

TEST_F(HealthEndpointsTest, HealthReportsComponentStates) {
  const std::string response = http_get(server_.port(), "/health");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"status\":"), std::string::npos);
  EXPECT_NE(body.find("\"alerts_active\":"), std::string::npos);
  EXPECT_NE(body.find("\"evaluations\":1"), std::string::npos);
  EXPECT_NE(body.find("\"components\":["), std::string::npos);
  // Every default-rule component is listed with a state and a reason.
  for (const char* component :
       {"ingress", "stage2", "classification", "collector", "validation"}) {
    EXPECT_NE(body.find(std::string("\"name\":\"") + component + "\""),
              std::string::npos)
        << component << " missing in " << body;
  }
  EXPECT_NE(body.find("\"state\":"), std::string::npos);
  EXPECT_NE(body.find("\"reason\":"), std::string::npos);
}

TEST_F(HealthEndpointsTest, AlertsListsActiveAndRecent) {
  const std::string body = body_of(http_get(server_.port(), "/alerts"));
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"raised\":"), std::string::npos);
  EXPECT_NE(body.find("\"resolved\":"), std::string::npos);
  EXPECT_NE(body.find("\"active\":["), std::string::npos);
  EXPECT_NE(body.find("\"recent\":["), std::string::npos);

  const std::string limited =
      body_of(http_get(server_.port(), "/alerts?limit=1"));
  EXPECT_TRUE(JsonChecker(limited).valid()) << limited;

  // Malformed limit is a 400, not a crash.
  EXPECT_NE(http_get(server_.port(), "/alerts?limit=pear")
                .find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(HealthEndpointsTest, TimeseriesReturnsPointsAndFilters) {
  // The registry ingests gave every engine metric two points.
  const std::string body = body_of(
      http_get(server_.port(), "/timeseries?name=ipd_cycles_total"));
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"name\":\"ipd_cycles_total\""), std::string::npos);
  EXPECT_NE(body.find("\"series\":["), std::string::npos);
  EXPECT_NE(body.find("\"points\":[[120,"), std::string::npos);

  // `from` trims older points.
  const std::string tail = body_of(http_get(
      server_.port(), "/timeseries?name=ipd_cycles_total&from=240"));
  EXPECT_TRUE(JsonChecker(tail).valid()) << tail;
  EXPECT_EQ(tail.find("[[120,"), std::string::npos);
  EXPECT_NE(tail.find("[[240,"), std::string::npos);
}

TEST_F(HealthEndpointsTest, TimeseriesRejectsBadQueries) {
  // Missing name -> 400; unknown name -> 404; junk from -> 400.
  EXPECT_NE(http_get(server_.port(), "/timeseries").find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_get(server_.port(), "/timeseries?name=no_such_series")
                .find("HTTP/1.1 404"),
            std::string::npos);
  EXPECT_NE(http_get(server_.port(),
                     "/timeseries?name=ipd_cycles_total&from=banana")
                .find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(HealthEndpointsTest, HealthGaugesReachTheMetricsEndpoint) {
  const std::string body = body_of(http_get(server_.port(), "/metrics"));
  EXPECT_NE(body.find("ipd_health_state{component=\"overall\"}"),
            std::string::npos);
  EXPECT_NE(body.find("ipd_alerts_active"), std::string::npos);
}

TEST_F(IntrospectionTest, PerfEndpointServesCounterSnapshot) {
  obs::PerfCounters perf;
  {
    std::lock_guard<obs::InstrumentedMutex> lock(mutex_);
    observers_.perf = &perf;  // registers the engine's phase names
    engine_.observe(observers_);
  }
  const std::string response = http_get(server_.port(), "/perf");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  // The document is complete whether or not counters are live here.
  EXPECT_NE(body.find("\"available\":"), std::string::npos);
  EXPECT_NE(body.find("\"events\":"), std::string::npos);
  EXPECT_NE(body.find("\"phases\":["), std::string::npos);
  EXPECT_NE(body.find("stage2.cycle"), std::string::npos);
}

TEST_F(IntrospectionTest, ProfileRejectsBadParameters) {
  // Zero / junk / over-cap durations, junk hz, unknown clock: 400s, and
  // none of them may arm a timer (the request returns immediately).
  for (const char* target :
       {"/profile?seconds=0", "/profile?seconds=banana",
        "/profile?seconds=31", "/profile?hz=0", "/profile?hz=5000",
        "/profile?seconds=1&clock=lunar"}) {
    EXPECT_NE(http_get(server_.port(), target).find("HTTP/1.1 400"),
              std::string::npos)
        << target;
  }
}

TEST_F(IntrospectionTest, ProfileReturnsFoldedStacks) {
#if defined(IPD_TSAN)
  GTEST_SKIP() << "signal-handler unwind not TSan-clean";
#else
  // Wall clock: the server thread blocks for the sampled second while the
  // timer fires regardless of CPU activity — the smoke-test configuration.
  const std::string response =
      http_get(server_.port(), "/profile?seconds=1&hz=199&clock=wall");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  const std::string body = body_of(response);
  ASSERT_FALSE(body.empty());
  // Folded lines: frames joined by ';', then a space and the count.
  // Symbolized frames may themselves contain spaces (template arguments),
  // so the count is whatever follows the line's LAST space.
  const std::string first_line = body.substr(0, body.find('\n'));
  const std::size_t space = first_line.rfind(' ');
  ASSERT_NE(space, std::string::npos) << first_line;
  EXPECT_NE(first_line.find(';'), std::string::npos) << first_line;
  EXPECT_TRUE(
      std::isdigit(static_cast<unsigned char>(first_line[space + 1])))
      << first_line;
#endif
}

TEST_F(IntrospectionTest, ProfileIsBusyWhileAnotherProfilerRuns) {
#if defined(IPD_TSAN)
  GTEST_SKIP() << "signal-handler unwind not TSan-clean";
#else
  obs::CpuProfiler profiler;
  std::string error;
  ASSERT_TRUE(profiler.start(&error)) << error;
  // The endpoint refuses rather than queueing behind the running session.
  EXPECT_NE(http_get(server_.port(), "/profile?seconds=1")
                .find("HTTP/1.1 409"),
            std::string::npos);
  profiler.stop();
#endif
}

TEST_F(IntrospectionTest, ThreadsReportsLiveThreads) {
  const std::string response = http_get(server_.port(), "/threads");
  ASSERT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"count\":"), std::string::npos);
  EXPECT_NE(body.find("\"threads\":["), std::string::npos);
  // No watchdog attached in this fixture — explicit null, not absent.
  EXPECT_NE(body.find("\"watchdog\":null"), std::string::npos);
  // The serving thread itself must show up by name.
  EXPECT_NE(body.find("ipd-http"), std::string::npos);

  const std::string text =
      body_of(http_get(server_.port(), "/threads?format=text"));
  EXPECT_NE(text.find("TID"), std::string::npos);
  EXPECT_NE(text.find("ipd-http"), std::string::npos);

  EXPECT_NE(http_get(server_.port(), "/threads?format=xml")
                .find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(IntrospectionTest, LocksReportsInstrumentedSites) {
  const std::string response = http_get(server_.port(), "/locks");
  ASSERT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  // The fixture's engine mutex feeds the "test.engine" site.
  EXPECT_NE(body.find("\"test.engine\""), std::string::npos);

  const std::string text =
      body_of(http_get(server_.port(), "/locks?format=text&limit=5"));
  EXPECT_NE(text.find("test.engine"), std::string::npos);

  EXPECT_NE(http_get(server_.port(), "/locks?format=xml")
                .find("HTTP/1.1 400"),
            std::string::npos);
  EXPECT_NE(http_get(server_.port(), "/locks?limit=bogus")
                .find("HTTP/1.1 400"),
            std::string::npos);
}

TEST_F(IntrospectionTest, IndexListsEndpoints) {
  const std::string body = body_of(http_get(server_.port(), "/"));
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("/explain"), std::string::npos);
  EXPECT_NE(body.find("/metrics"), std::string::npos);
  EXPECT_NE(body.find("/threads"), std::string::npos);
  EXPECT_NE(body.find("/locks"), std::string::npos);
}

// /shards serves the measured occupancy histogram + cut members at any
// shard count; a one-shard engine reports one slot per family.
TEST_F(IntrospectionTest, OneShardEngineServesShards) {
  const std::string response = http_get(server_.port(), "/shards");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"shard_count\":1"), std::string::npos) << body;
}

TEST(IntrospectionSharded, ShardsReportsOccupancyAndCut) {
  core::IpdParams params;
  params.ncidr_factor4 = 0.001;
  core::EngineConfig config;
  config.shard_bits = 2;
  config.ingest_threads = 2;  // the weighted cut
  core::IpdEngine engine(params, config);
  obs::InstrumentedMutex mutex{"test.engine"};
  // Spread flows across the top bits so every shard slot sees traffic.
  for (std::uint32_t i = 0; i < 64; ++i) {
    engine.ingest(30, net::IpAddress::v4((i << 26) | 0x0A0001u),
                  topology::LinkId{1, 1}, 1);
  }
  engine.run_cycle(60);
  IntrospectionServer server(engine, mutex);
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;
  const std::string response = http_get(server.port(), "/shards");
  EXPECT_NE(response.find("HTTP/1.1 200"), std::string::npos);
  const std::string body = body_of(response);
  EXPECT_TRUE(JsonChecker(body).valid()) << body;
  EXPECT_NE(body.find("\"shard_count\":4"), std::string::npos) << body;
  EXPECT_NE(body.find("\"imbalance_ratio\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"cut_members\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"interval_flows\""), std::string::npos) << body;
  server.stop();
}

TEST_F(IntrospectionTest, UnknownPathIs404) {
  EXPECT_NE(http_get(server_.port(), "/nope").find("HTTP/1.1 404"),
            std::string::npos);
}

// Without a decision log or tracer attached, /decisions and /trace degrade
// to 503 instead of crashing.
TEST(IntrospectionBare, MissingAttachmentsAre503) {
  core::IpdParams params;
  core::IpdEngine engine(params);
  obs::InstrumentedMutex mutex{"test.engine"};
  IntrospectionServer server(engine, mutex);
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;
  EXPECT_NE(http_get(server.port(), "/decisions").find("HTTP/1.1 503"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/trace").find("HTTP/1.1 503"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/metrics").find("HTTP/1.1 503"),
            std::string::npos);
  // Same for the health surfaces when nothing was attached.
  EXPECT_NE(http_get(server.port(), "/health").find("HTTP/1.1 503"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/alerts").find("HTTP/1.1 503"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/timeseries?name=x").find("HTTP/1.1 503"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/perf").find("HTTP/1.1 503"),
            std::string::npos);
  // /healthz and /ranges work from the engine alone.
  EXPECT_NE(http_get(server.port(), "/healthz").find("HTTP/1.1 200"),
            std::string::npos);
  EXPECT_NE(http_get(server.port(), "/ranges").find("HTTP/1.1 200"),
            std::string::npos);
  server.stop();
}

// The observer lifetime contract under load: one thread swaps whole
// bundles while another ingests and cycles a sharded engine and a third
// serves /flows, /decisions and /perf. Every bundle outlives the engine;
// ThreadSanitizer checks that no sink pointer is read while written.
struct RaceSinks {
  obs::MetricsRegistry registry;
  core::DecisionLog decisions;
  obs::Tracer tracer;
  core::CycleDeltaLog deltas;
  obs::PerfCounters perf;
  obs::FlowTracer flows{obs::FlowTracerConfig{.sample_period = 4}};

  core::EngineObservers bundle() {
    return {.metrics = &registry,
            .decisions = &decisions,
            .tracer = &tracer,
            .cycle_deltas = &deltas,
            .perf = &perf,
            .flow_trace = &flows};
  }
};

TEST(IntrospectionObservers, BundleSwapsRaceIngestCyclesAndRequests) {
  RaceSinks a;
  RaceSinks b;
  const std::array<core::EngineObservers, 3> bundles{a.bundle(), b.bundle(),
                                                     core::EngineObservers{}};
  core::IpdParams params;
  params.ncidr_factor4 = 0.001;
  core::EngineConfig config;
  config.shard_bits = 2;
  config.ingest_threads = 2;
  core::IpdEngine engine(params, config);
  obs::InstrumentedMutex mutex{"test.engine"};
  IntrospectionServer server(engine, mutex);
  std::string error;
  ASSERT_TRUE(server.start(0, &error)) << error;

  constexpr int kRounds = 40;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> swapped{0};
  std::thread ingest([&] {
    netflow::FlowBatch batch;
    for (int round = 0; round < kRounds; ++round) {
      // Pace the rounds to the swapper so every bundle is swapped in
      // while rounds remain: a fast cycle must not finish the whole run
      // before the swapper thread is first scheduled.
      while (swapped.load() < (round + 1) * bundles.size() / kRounds) {
        std::this_thread::yield();
      }
      const util::Timestamp ts = 60 * (round + 1);
      batch.clear();
      const auto shift = static_cast<std::uint32_t>(round / 8);
      for (std::uint32_t i = 0; i < 256; ++i) {
        // Every /8 each round; the ingress rotates every 8 rounds, so
        // ranges classify, demote and split while bundles change.
        netflow::FlowRecord r;
        r.ts = ts - 30;
        r.src_ip = net::IpAddress::v4((i << 24) | (shift << 8));
        r.ingress = {1 + (i + shift) % 3, 1};
        batch.push_back(r);
      }
      const std::lock_guard<obs::InstrumentedMutex> lock(mutex);
      engine.apply_batch(batch);
      engine.run_cycle(ts);
    }
    done = true;
  });
  std::size_t swaps = 0;
  std::thread swapper([&] {
    for (; !done; ++swaps) {
      engine.observe(bundles[swaps % bundles.size()]);
      swapped.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  std::size_t served = 0;
  while (!done) {
    for (const char* path : {"/flows?limit=8", "/decisions?limit=8", "/perf"}) {
      const std::string response = http_get(server.port(), path);
      // 503 while the empty bundle is in place.
      EXPECT_TRUE(response.find("HTTP/1.1 200") == 0 ||
                  response.find("HTTP/1.1 503") == 0)
          << path << ": " << response.substr(0, 64);
      ++served;
    }
  }
  ingest.join();
  swapper.join();
  server.stop();
  EXPECT_GT(served, 0u);
  EXPECT_GE(swaps, bundles.size());
  EXPECT_EQ(engine.stats().flows_ingested, 256u * kRounds);
  EXPECT_EQ(engine.stats().cycles_run, static_cast<std::uint64_t>(kRounds));
}

}  // namespace
}  // namespace ipd::analysis
