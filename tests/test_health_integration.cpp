// Fig. 13 maintenance scenario end to end: a classified range's traffic
// moves to a different ingress (interface maintenance), the health engine
// raises an ingress-shift alert within one stage-2 cycle of the demotion,
// and the alert resolves — naming both ingresses — once the range
// re-classifies behind the new link.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/health.hpp"
#include "core/engine.hpp"
#include "net/ip_address.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

namespace ipd::analysis {
namespace {

class Fig13Maintenance : public ::testing::Test {
 protected:
  Fig13Maintenance() : engine_(make_params()), health_(store_) {
    engine_.observe({.metrics = &registry_, .cycle_deltas = &deltas_});
    health_.install_default_rules(make_params());
    health_.attach_cycle_deltas(deltas_);
    health_.bind_metrics(registry_);
    health_.on_alert = [this](const Alert& alert) { fired_.push_back(alert); };
  }

  static core::IpdParams make_params() {
    core::IpdParams params;
    params.ncidr_factor4 = 0.001;  // classify quickly on tiny traffic
    params.ncidr_factor6 = 1e-7;
    return params;
  }

  /// One stage-2 cycle ending at `end`: traffic during (end - t, end], then
  /// run_cycle + TSDB ingest + health evaluation — the runner's loop at
  /// test scale.
  void cycle(util::Timestamp end, topology::LinkId blue_link) {
    for (int i = 0; i < 40; ++i) {
      engine_.ingest(end - 30, blue(i), blue_link, 1);
      engine_.ingest(end - 30, green(i), kGreenLink, 1);
    }
    engine_.run_cycle(end);
    store_.ingest(registry_, end);
    health_.evaluate(end);
  }

  // Two disjoint halves so the trie splits and both sides classify.
  static net::IpAddress blue(int i) {
    return net::IpAddress::from_string("10.0." + std::to_string(i) + ".1");
  }
  static net::IpAddress green(int i) {
    return net::IpAddress::from_string("200.0." + std::to_string(i) + ".1");
  }

  static constexpr topology::LinkId kBlueBefore{10, 1};
  static constexpr topology::LinkId kBlueAfter{11, 0};
  static constexpr topology::LinkId kGreenLink{20, 1};

  obs::MetricsRegistry registry_;
  obs::TimeSeriesStore store_;
  core::CycleDeltaLog deltas_;
  core::IpdEngine engine_;
  HealthEngine health_;
  std::vector<Alert> fired_;
};

TEST_F(Fig13Maintenance, ShiftAlertFiresWithinOneCycleAndResolves) {
  const auto params = make_params();

  // Steady state: several cycles with the blue half entering via R10.1.
  util::Timestamp now = 0;
  for (int c = 0; c < 4; ++c) cycle(now += params.t, kBlueBefore);
  ASSERT_TRUE(health_.active_alerts().empty())
      << "steady state must be alert-free";

  // Maintenance at t_maint: blue traffic moves to another router. The very
  // next cycle dilutes R10.1 below q and stage 2 demotes — the alert must
  // be live after that one cycle.
  const util::Timestamp t_maint = now;
  cycle(now += params.t, kBlueAfter);

  const auto active = health_.active_alerts();
  ASSERT_FALSE(active.empty())
      << "no ingress-shift alert within one stage-2 cycle of the change";
  bool found = false;
  for (const Alert& alert : active) {
    if (alert.rule != "ingress-shift") continue;
    found = true;
    EXPECT_LE(alert.first_seen, t_maint + params.t);
    // The compared quantities are populated: the share the range held at
    // demote time, against the q it needed.
    EXPECT_GT(alert.observed, 0.0);
    EXPECT_LT(alert.observed, alert.threshold);
    EXPECT_DOUBLE_EQ(alert.threshold, params.q);
    EXPECT_NE(alert.detail.find("R10.1"), std::string::npos) << alert.detail;
    EXPECT_EQ(alert.resolved_at, 0);
  }
  ASSERT_TRUE(found);
  EXPECT_EQ(health_.overall(), HealthState::Degraded);

  // Keep the traffic flowing on the new link: the old counts decay, the
  // range re-classifies behind R11.0, and every shift alert resolves.
  for (int c = 0; c < 12 && !health_.active_alerts().empty(); ++c) {
    cycle(now += params.t, kBlueAfter);
  }
  for (const Alert& alert : health_.active_alerts()) {
    EXPECT_NE(alert.rule, "ingress-shift")
        << "shift alert never resolved for " << alert.subject;
  }
  EXPECT_EQ(health_.overall(), HealthState::Ok);

  // The resolved records name the re-classified ingress.
  bool resolved_with_shift = false;
  for (const Alert& alert : health_.recent_alerts()) {
    if (alert.rule != "ingress-shift") continue;
    EXPECT_GT(alert.resolved_at, t_maint);
    if (alert.detail.find("R11.0") != std::string::npos) {
      resolved_with_shift = true;
    }
  }
  EXPECT_TRUE(resolved_with_shift)
      << "no resolution detail names the new ingress";

  // The callback stream saw both sides of the lifecycle.
  bool saw_raise = false, saw_resolve = false;
  for (const Alert& alert : fired_) {
    if (alert.rule != "ingress-shift") continue;
    (alert.resolved_at == 0 ? saw_raise : saw_resolve) = true;
  }
  EXPECT_TRUE(saw_raise);
  EXPECT_TRUE(saw_resolve);

  // The health gauges recovered with the partition.
  EXPECT_DOUBLE_EQ(
      registry_.gauge("ipd_health_state", "", {{"component", "overall"}})
          .value(),
      0.0);
}

}  // namespace
}  // namespace ipd::analysis
