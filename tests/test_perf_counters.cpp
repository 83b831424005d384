// PerfCounters: grouped perf_event_open readers with graceful degradation.
//
// This suite must pass on three kinds of machines: full PMU (hardware
// events live), software-only (container / VM without an exposed PMU —
// task-clock works, hardware events fail with ENOENT), and fully locked
// down (perf_event_paranoid >= 3 or seccomp -> EACCES/ENOSYS). The
// degradation contract — inert scopes, zero-value snapshots, no crashes —
// is simulated explicitly through PerfCountersConfig::simulate_errno so it
// is exercised even where the real syscall succeeds.
#include "obs/perf_counters.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/scope.hpp"

namespace ipd::obs {
namespace {

/// Burn a little CPU so task-clock (and cycles, where live) advance.
void spin_for_a_bit() {
  volatile std::uint64_t sink = 0;
  for (int i = 0; i < 2000000; ++i) sink += static_cast<std::uint64_t>(i) * 3;
}

TEST(PerfCountersDegraded, SimulatedEaccesIsInert) {
  PerfCountersConfig config;
  config.simulate_errno = EACCES;  // perf_event_paranoid locked down
  PerfCounters perf(config);

  EXPECT_FALSE(perf.available());
  EXPECT_EQ(perf.open_errno(), EACCES);
  for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
    EXPECT_FALSE(perf.event_available(static_cast<PerfEvent>(e)));
  }

  PerfReading reading;
  EXPECT_FALSE(perf.read_current(reading));
  EXPECT_EQ(perf.thread_sampler(), nullptr);

  // A layer wired to a degraded instance drops its perf sink, so scopes
  // over it are fully inert: no syscalls, no counting, no deltas — the
  // engine's hot path pays nothing. The phase is still registered.
  const Layer layer("stage1.ingest", 1, nullptr, nullptr, &perf);
  EXPECT_FALSE(layer.active());
  {
    Scope scope(layer);
    EXPECT_EQ(scope.start_ns(), 0);  // no clock read either
    spin_for_a_bit();
    EXPECT_EQ(scope.close(), 0);
  }
  const auto snapshot = perf.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].name, "stage1.ingest");
  EXPECT_EQ(snapshot[0].scopes, 0u);
  EXPECT_EQ(snapshot[0][PerfEvent::TaskClock], 0u);

  // to_json still renders a complete, honest document.
  const std::string json = perf.to_json();
  EXPECT_NE(json.find("\"available\":false"), std::string::npos) << json;
  EXPECT_NE(json.find("\"errno\":13"), std::string::npos) << json;
}

TEST(PerfCountersDegraded, SimulatedEnosysIsInert) {
  PerfCountersConfig config;
  config.simulate_errno = ENOSYS;  // seccomp filter or exotic kernel
  PerfCounters perf(config);
  EXPECT_FALSE(perf.available());
  EXPECT_EQ(perf.open_errno(), ENOSYS);
  PerfReading reading;
  EXPECT_FALSE(perf.read_current(reading));
}

TEST(PerfCountersDegraded, EnvKillSwitchDisablesWithoutSyscalls) {
  ::setenv("IPD_PERF_DISABLE", "1", 1);
  PerfCounters perf;
  ::unsetenv("IPD_PERF_DISABLE");
  EXPECT_TRUE(perf.disabled());
  EXPECT_FALSE(perf.available());
  EXPECT_EQ(perf.open_errno(), 0);  // nothing was even attempted
  const std::string json = perf.to_json();
  EXPECT_NE(json.find("\"disabled\":true"), std::string::npos) << json;
}

TEST(PerfCounters, PhaseRegistrationIsIdempotentAndBounded) {
  PerfCounters perf;
  const int a = perf.phase("stage1.ingest");
  const int b = perf.phase("stage2.cycle");
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  EXPECT_NE(a, b);
  EXPECT_EQ(perf.phase("stage1.ingest"), a);  // same name, same id

  // Fill the table; past kMaxPhases registration degrades to -1 and a
  // layer whose phase got -1 has no perf sink: its scopes are no-ops
  // rather than out-of-bounds writes.
  for (int i = 0; i < PerfCounters::kMaxPhases + 4; ++i) {
    perf.phase("filler." + std::to_string(i));
  }
  const int overflow = perf.phase("one.too.many");
  EXPECT_EQ(overflow, -1);
  const Layer layer("one.too.many", 1, nullptr, nullptr, &perf);
  EXPECT_FALSE(layer.active());
  { Scope scope(layer); }
  EXPECT_EQ(perf.snapshot().size(),
            static_cast<std::size_t>(PerfCounters::kMaxPhases));
}

TEST(PerfCounters, ScopesAccumulateTaskClock) {
  PerfCounters perf;
  if (!perf.available()) {
    GTEST_SKIP() << "perf_event_open unavailable here (errno="
                 << perf.open_errno() << ")";
  }
  const Layer layer("test.spin", 1, nullptr, nullptr, &perf);
  EXPECT_TRUE(layer.active());
  for (int i = 0; i < 3; ++i) {
    Scope scope(layer);
    spin_for_a_bit();
  }
  const auto snapshot = perf.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].scopes, 3u);
  if (perf.event_available(PerfEvent::TaskClock)) {
    EXPECT_GT(snapshot[0][PerfEvent::TaskClock], 0u);
  }
  if (perf.event_available(PerfEvent::Cycles)) {
    EXPECT_GT(snapshot[0][PerfEvent::Cycles], 0u);
    EXPECT_GT(snapshot[0].ipc(), 0.0);
  }
}

TEST(PerfCounters, ScopeCloseChargesThePhaseOnce) {
  PerfCounters perf;
  if (!perf.available()) {
    GTEST_SKIP() << "perf_event_open unavailable here";
  }
  const Layer layer("test.close", 1, nullptr, nullptr, &perf);
  Scope scope(layer);
  spin_for_a_bit();
  const std::int64_t ns = scope.close();
  EXPECT_GT(ns, 0);
  EXPECT_EQ(scope.close(), ns);  // idempotent: same interval, no new charge
  const auto snapshot = perf.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  if (perf.event_available(PerfEvent::TaskClock)) {
    EXPECT_GT(snapshot[0][PerfEvent::TaskClock], 0u);
  }
  // close() is terminal: the destructor must not double-count.
  EXPECT_EQ(snapshot[0].scopes, 1u);
}

TEST(PerfCounters, PublishExportsGaugesWithPhaseLabels) {
  PerfCounters perf;  // works degraded too: gauges exist either way
  const Layer layer("test.publish", 1, nullptr, nullptr, &perf);
  {
    Scope scope(layer);
    spin_for_a_bit();
  }
  MetricsRegistry registry;
  perf.publish(registry);

  bool saw_available = false;
  bool saw_phase_gauge = false;
  for (const auto& family : registry.collect()) {
    if (family.name == "ipd_perf_available") saw_available = true;
    if (family.name.rfind("ipd_perf_", 0) == 0) {
      for (const auto& sample : family.samples) {
        for (const auto& [key, value] : sample.labels) {
          saw_phase_gauge |= key == "phase" && value == "test.publish";
        }
      }
    }
  }
  EXPECT_TRUE(saw_available);
  // Per-phase gauges exist only where counters are live at all.
  if (perf.available()) EXPECT_TRUE(saw_phase_gauge);
}

TEST(PerfCounters, ConcurrentScopesFromManyThreads) {
  PerfCounters perf;
  Histogram hist(Histogram::exponential_bounds(1e-6, 10.0, 8));
  Tracer tracer(1024);
  const Layer layer("test.mt", 1, &hist, &tracer, &perf);
  constexpr int kThreads = 4;
  constexpr int kScopesPerThread = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kScopesPerThread; ++i) {
        Scope scope(layer);
        volatile int sink = 0;
        for (int k = 0; k < 1000; ++k) sink += k;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  // Every scope reached the histogram and the trace ring, whatever the
  // counters could do.
  constexpr std::uint64_t kScopes = kThreads * kScopesPerThread;
  EXPECT_EQ(hist.count(), kScopes);
  EXPECT_EQ(tracer.total_recorded(), kScopes);
  const auto snapshot = perf.snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  if (perf.available()) {
    EXPECT_EQ(snapshot[0].scopes, kScopes);
  } else {
    EXPECT_EQ(snapshot[0].scopes, 0u);  // degraded perf sink is inert
  }
}

TEST(PerfCounters, NullCountersScopeIsANoOp) {
  // Engines wire perf = nullptr when nothing is attached.
  const Layer layer("test.null", 1, nullptr, nullptr, nullptr);
  EXPECT_FALSE(layer.active());
  Scope scope(layer);
  EXPECT_EQ(scope.start_ns(), 0);
  EXPECT_EQ(scope.close(), 0);
  // A detached layer still times when asked to (run_cycle's cycle_micros).
  Scope timed(layer, /*always_time=*/true);
  spin_for_a_bit();
  EXPECT_GT(timed.close(), 0);
}

TEST(PerfCounters, MemoryBytesIsAccounted) {
  PerfCounters perf;
  perf.phase("a");
  perf.phase("b");
  EXPECT_GT(perf.memory_bytes(), 0u);
}

}  // namespace
}  // namespace ipd::obs
