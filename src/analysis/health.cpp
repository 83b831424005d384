#include "analysis/health.hpp"

#include <algorithm>

#include "net/prefix.hpp"
#include "util/strings.hpp"

namespace ipd::analysis {

namespace {

/// Subset match: every (k,v) of `wanted` present in `have`.
bool labels_match(const obs::Labels& wanted, const obs::Labels& have) {
  for (const auto& kv : wanted) {
    if (std::find(have.begin(), have.end(), kv) == have.end()) return false;
  }
  return true;
}

std::string labels_subject(const obs::Labels& labels) {
  std::string out;
  for (const auto& [k, v] : labels) {
    if (!out.empty()) out += ',';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

constexpr const char* kShiftRuleName = "ingress-shift";
constexpr const char* kShiftComponent = "ingress";

HealthState severity_state(AlertSeverity severity) noexcept {
  return severity == AlertSeverity::Critical ? HealthState::Unhealthy
                                             : HealthState::Degraded;
}

}  // namespace

const char* to_string(HealthState state) noexcept {
  switch (state) {
    case HealthState::Ok: return "ok";
    case HealthState::Degraded: return "degraded";
    case HealthState::Unhealthy: return "unhealthy";
  }
  return "?";
}

const char* to_string(AlertSeverity severity) noexcept {
  switch (severity) {
    case AlertSeverity::Warning: return "warning";
    case AlertSeverity::Critical: return "critical";
  }
  return "?";
}

std::string to_json(const Alert& alert) {
  std::string out = util::format(
      "{\"id\":%llu,\"rule\":\"%s\",\"component\":\"%s\",\"severity\":\"%s\"",
      static_cast<unsigned long long>(alert.id),
      util::json_escape(alert.rule).c_str(),
      util::json_escape(alert.component).c_str(), to_string(alert.severity));
  if (!alert.subject.empty()) {
    out += ",\"subject\":\"" + util::json_escape(alert.subject) + "\"";
  }
  out += util::format(
      ",\"observed\":%.6g,\"threshold\":%.6g,\"window_points\":%zu,"
      "\"first_seen\":%lld,\"last_seen\":%lld,\"resolved_at\":%lld,"
      "\"reason\":\"%s\"",
      alert.observed, alert.threshold, alert.window_points,
      static_cast<long long>(alert.first_seen),
      static_cast<long long>(alert.last_seen),
      static_cast<long long>(alert.resolved_at),
      util::json_escape(alert.reason).c_str());
  if (!alert.detail.empty()) {
    out += ",\"detail\":\"" + util::json_escape(alert.detail) + "\"";
  }
  out += '}';
  return out;
}

HealthEngine::HealthEngine(const obs::TimeSeriesStore& store,
                           HealthConfig config)
    : store_(&store), config_(config) {
  if (config_.recent_capacity == 0) config_.recent_capacity = 1;
}

void HealthEngine::note_component(const std::string& component) {
  if (std::find(component_names_.begin(), component_names_.end(), component) ==
      component_names_.end()) {
    component_names_.push_back(component);
  }
}

void HealthEngine::add_rule(ThresholdRule rule) {
  const std::lock_guard<std::mutex> lock(mutex_);
  note_component(rule.component);
  rules_.push_back(std::move(rule));
}

void HealthEngine::install_default_rules(const core::IpdParams& params) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shift_rule_enabled_ = true;
    shift_q_ = params.q;
    note_component(kShiftComponent);
  }

  // Stage-2 cycle duration vs. the t budget (§5.7: every cycle must finish
  // before the next one is due). Average seconds per cycle over the window,
  // derived from the histogram's _sum/_count deltas.
  ThresholdRule overrun;
  overrun.name = "stage2-cycle-overrun";
  overrun.component = "stage2";
  overrun.severity = AlertSeverity::Critical;
  overrun.series = "ipd_cycle_seconds_sum";
  overrun.ratio_series = "ipd_cycle_seconds_count";
  overrun.agg = ThresholdRule::Agg::DeltaRatio;
  overrun.cmp = ThresholdRule::Cmp::GreaterThan;
  overrun.threshold =
      std::min(config_.cycle_budget_s, static_cast<double>(params.t));
  overrun.window_points = config_.window_points;
  overrun.reason = "mean stage-2 cycle wall time exceeds the cycle budget";
  add_rule(std::move(overrun));

  // A burst of demotions: many classified ranges losing their ingress in
  // one window is the aggregate signature of a topology event (Fig. 13's
  // maintenance), not normal churn.
  ThresholdRule burst;
  burst.name = "mass-demotion-burst";
  burst.component = "classification";
  burst.severity = AlertSeverity::Warning;
  burst.series = "ipd_cycle_events_total";
  burst.labels = {{"event", "drop"}};
  burst.agg = ThresholdRule::Agg::Delta;
  burst.cmp = ThresholdRule::Cmp::GreaterThan;
  burst.threshold = config_.demotion_burst;
  burst.window_points = config_.window_points;
  burst.reason = "demotions in the window exceed the burst threshold";
  add_rule(std::move(burst));

  // Collector ring refusals: records a full reader ring refused are lost
  // before the engine sees them (ingest undercount -> silently wrong
  // shares) unless the reader resubmits them, which the collector cannot
  // see.
  ThresholdRule drops;
  drops.name = "collector-ring-drops";
  drops.component = "collector";
  drops.severity = AlertSeverity::Warning;
  drops.series = "ipd_ring_dropped_total";
  drops.agg = ThresholdRule::Agg::Delta;
  drops.cmp = ThresholdRule::Cmp::GreaterThan;
  drops.threshold = 0.0;
  drops.window_points = config_.window_points;
  drops.reason =
      "flow records refused by a full reader ring (lost unless resubmitted)";
  add_rule(std::move(drops));

  // Accuracy regression vs. the trailing window: the per-bin validation
  // accuracy falling materially below its own recent mean.
  ThresholdRule accuracy;
  accuracy.name = "accuracy-regression";
  accuracy.component = "validation";
  accuracy.severity = AlertSeverity::Warning;
  accuracy.series = "ipd_validation_accuracy";
  accuracy.agg = ThresholdRule::Agg::DropVsTrailingMean;
  accuracy.cmp = ThresholdRule::Cmp::GreaterThan;
  accuracy.threshold = config_.accuracy_drop;
  accuracy.window_points = config_.window_points;
  accuracy.reason = "per-bin accuracy fell below its trailing-window mean";
  add_rule(std::move(accuracy));

  // Microarchitectural regressions in stage 2 (series exist only when perf
  // counters are attached and the PMU is exposed; otherwise these rules
  // never fire). IPC collapsing below its own trailing mean means the
  // cycle is suddenly stalling — the classic symptom of a working set
  // outgrowing a cache level.
  ThresholdRule ipc;
  ipc.name = "stage2-ipc-collapse";
  ipc.component = "perf";
  ipc.severity = AlertSeverity::Warning;
  ipc.series = "ipd_perf_ipc";
  ipc.labels = {{"phase", "stage2.cycle"}};
  ipc.agg = ThresholdRule::Agg::DropVsTrailingMean;
  ipc.cmp = ThresholdRule::Cmp::GreaterThan;
  ipc.threshold = config_.perf_ipc_drop;
  ipc.window_points = config_.window_points;
  ipc.reason = "stage-2 IPC fell below its trailing-window mean";
  add_rule(std::move(ipc));

  // The same signal from the cache side: the LLC miss rate rising above
  // its trailing mean (a negative "drop" beyond the spike threshold).
  ThresholdRule llc;
  llc.name = "stage2-llc-miss-spike";
  llc.component = "perf";
  llc.severity = AlertSeverity::Warning;
  llc.series = "ipd_perf_llc_miss_rate";
  llc.labels = {{"phase", "stage2.cycle"}};
  llc.agg = ThresholdRule::Agg::DropVsTrailingMean;
  llc.cmp = ThresholdRule::Cmp::LessThan;
  llc.threshold = -config_.perf_llc_spike;
  llc.window_points = config_.window_points;
  llc.reason = "stage-2 LLC miss rate rose above its trailing-window mean";
  add_rule(std::move(llc));

  // Pipeline-freshness SLO: the answer the published LPM table would give
  // is older than the SLO allows (collector fell behind, or snapshots
  // stopped publishing). Data-time lag, so it works in replay too.
  ThresholdRule freshness;
  freshness.name = "freshness-slo-breach";
  freshness.component = "pipeline";
  freshness.severity = AlertSeverity::Critical;
  freshness.series = "ipd_freshness_seconds";
  freshness.agg = ThresholdRule::Agg::Last;
  freshness.cmp = ThresholdRule::Cmp::GreaterThan;
  freshness.threshold = config_.freshness_slo_s;
  freshness.window_points = config_.window_points;
  freshness.clear_after = 2;
  freshness.reason =
      "published table lags the newest decoded flow beyond the SLO";
  add_rule(std::move(freshness));

  // Ring-residency p99 spike: queueing delay inside the reader rings.
  // Watches the gauge form (histograms bridge into the TSDB as
  // _sum/_count only, which cannot express a tail quantile).
  ThresholdRule residency;
  residency.name = "ring-residency-p99-spike";
  residency.component = "collector";
  residency.severity = AlertSeverity::Warning;
  residency.series = "ipd_ring_residency_p99_seconds";
  residency.agg = ThresholdRule::Agg::Max;
  residency.cmp = ThresholdRule::Cmp::GreaterThan;
  residency.threshold = config_.ring_residency_p99_s;
  residency.window_points = config_.window_points;
  residency.reason = "ring-residency p99 spiked: IPD thread behind ingest";
  add_rule(std::move(residency));

  // Warm-restart snapshot staleness: the on-disk snapshot's data-time age
  // exceeding the budget means a crash now would replay more history than
  // the operator signed up for. No-op until a snapshot-taking process
  // publishes ipd_snapshot_age_seconds (the gauge is -1 before the first
  // save, which never trips a GreaterThan rule with a positive threshold).
  ThresholdRule stale;
  stale.name = "snapshot-stale";
  stale.component = "snapshot";
  stale.severity = AlertSeverity::Warning;
  stale.series = "ipd_snapshot_age_seconds";
  stale.agg = ThresholdRule::Agg::Last;
  stale.cmp = ThresholdRule::Cmp::GreaterThan;
  stale.threshold = config_.snapshot_age_s;
  stale.window_points = config_.window_points;
  stale.clear_after = 2;
  stale.reason = "newest warm-restart snapshot is older than the age budget";
  add_rule(std::move(stale));

  // Execution-observability rules (series exist when lock/thread/watchdog
  // telemetry publishes into the TSDB; otherwise they never fire).

  // Lock-wait p99 spike: one rule covers every instrumented site — a
  // site's tail wait blowing past the threshold means some path is
  // serializing behind it (e.g. introspection snapshots pinning the slot
  // locks while ingest waits).
  ThresholdRule lock_wait;
  lock_wait.name = "lock-wait-p99-spike";
  lock_wait.component = "execution";
  lock_wait.severity = AlertSeverity::Warning;
  lock_wait.series = "ipd_lock_wait_p99_seconds";
  lock_wait.agg = ThresholdRule::Agg::Max;
  lock_wait.cmp = ThresholdRule::Cmp::GreaterThan;
  lock_wait.threshold = config_.lock_wait_p99_s;
  lock_wait.window_points = config_.window_points;
  lock_wait.reason = "lock-wait p99 spiked at an instrumented site";
  add_rule(std::move(lock_wait));

  // Involuntary context-switch burst: threads being preempted en masse
  // means the process is fighting for CPU (noisy neighbor, wrong pinning,
  // or a runaway thread) — latency follows even before any queue grows.
  ThresholdRule preempt;
  preempt.name = "involuntary-ctx-switch-burst";
  preempt.component = "execution";
  preempt.severity = AlertSeverity::Warning;
  preempt.series = "ipd_thread_ctx_switches_total";
  preempt.labels = {{"kind", "involuntary"}};
  preempt.agg = ThresholdRule::Agg::Delta;
  preempt.cmp = ThresholdRule::Cmp::GreaterThan;
  preempt.threshold = config_.involuntary_ctx_burst;
  preempt.window_points = config_.window_points;
  preempt.reason = "involuntary context switches burst above the threshold";
  add_rule(std::move(preempt));

  // Watchdog stall: any increase is a missed heartbeat with a captured
  // stack waiting in /threads — always worth a page.
  ThresholdRule stall;
  stall.name = "watchdog-stall";
  stall.component = "execution";
  stall.severity = AlertSeverity::Critical;
  stall.series = "ipd_watchdog_stalls_total";
  stall.agg = ThresholdRule::Agg::Delta;
  stall.cmp = ThresholdRule::Cmp::GreaterThan;
  stall.threshold = 0.0;
  stall.window_points = config_.window_points;
  stall.clear_after = 2;
  stall.reason = "a registered task missed its heartbeat deadline";
  add_rule(std::move(stall));

  // Shard-load imbalance: the max/mean flow ratio across shard slots
  // staying high means one slot's bucket serializes the stage-1 fan-out
  // (Amdahl bound) — the operator should raise shard_bits so the hot
  // region spreads over more slots. Stage 2 balances itself: its units
  // are cut by work weight, not by shard. No-op on the sequential engine
  // (series never published).
  ThresholdRule imbalance;
  imbalance.name = "shard-imbalance";
  imbalance.component = "stage2";
  imbalance.severity = AlertSeverity::Warning;
  imbalance.series = "ipd_shard_imbalance_ratio";
  imbalance.agg = ThresholdRule::Agg::Mean;
  imbalance.cmp = ThresholdRule::Cmp::GreaterThan;
  imbalance.threshold = config_.shard_imbalance_ratio;
  imbalance.window_points = config_.window_points;
  imbalance.clear_after = 2;
  imbalance.reason =
      "shard flow load is skewed: hottest slot far above the mean "
      "(raise shard_bits to spread it)";
  add_rule(std::move(imbalance));
}

void HealthEngine::attach_cycle_deltas(core::CycleDeltaLog& log) {
  const std::lock_guard<std::mutex> lock(mutex_);
  cycle_deltas_ = &log;
  shift_rule_enabled_ = true;
  note_component(kShiftComponent);
}

void HealthEngine::bind_metrics(obs::MetricsRegistry& registry) {
  const std::lock_guard<std::mutex> lock(mutex_);
  registry_ = &registry;
}

void HealthEngine::raise_or_refresh(const std::string& key, Alert alert,
                                    std::vector<Alert>& fired) {
  const auto it = active_.find(key);
  if (it == active_.end()) {
    alert.id = next_id_++;
    ++raised_;
    active_.emplace(key, ActiveEntry{alert, 0});
    fired.push_back(std::move(alert));
    return;
  }
  // Already live: refresh the observed quantities, keep identity.
  Alert& live = it->second.alert;
  live.last_seen = alert.last_seen;
  live.observed = alert.observed;
  if (!alert.detail.empty()) live.detail = std::move(alert.detail);
  it->second.clear_streak = 0;
}

void HealthEngine::resolve(const std::string& key, util::Timestamp ts,
                           std::string detail, std::vector<Alert>& fired) {
  const auto it = active_.find(key);
  if (it == active_.end()) return;
  Alert alert = std::move(it->second.alert);
  active_.erase(it);
  alert.resolved_at = ts;
  if (!detail.empty()) alert.detail = std::move(detail);
  ++resolved_;
  if (recent_.size() >= config_.recent_capacity) {
    recent_.erase(recent_.begin());
  }
  recent_.push_back(alert);
  fired.push_back(std::move(alert));
}

void HealthEngine::evaluate_shift_rule(util::Timestamp ts,
                                       std::vector<Alert>& fired) {
  if (!shift_rule_enabled_ || cycle_deltas_ == nullptr) return;
  for (core::RangeTransition& t : cycle_deltas_->drain()) {
    const std::string prefix = t.prefix.to_string();
    if (t.kind == core::RangeTransition::Kind::Demote) {
      Alert alert;
      alert.rule = kShiftRuleName;
      alert.component = kShiftComponent;
      alert.subject = prefix;
      alert.severity = AlertSeverity::Warning;
      alert.observed = t.share;   // dominant share at demote time ...
      alert.threshold = shift_q_; // ... vs. the q it needed to hold
      alert.window_points = 1;
      alert.first_seen = t.ts;
      alert.last_seen = t.ts;
      alert.reason =
          "classified range lost its prevalent ingress (possible shift)";
      if (t.ingress.valid()) alert.detail = "was " + t.ingress.to_string();
      raise_or_refresh(std::string(kShiftRuleName) + '|' + prefix,
                       std::move(alert), fired);
      continue;
    }
    // Classify: resolves any live shift alert this range (or a sub-range
    // of it, when re-classification lands on an aggregate — Fig. 13's /23
    // endgame) was holding open.
    std::vector<std::string> done;
    for (const auto& [key, entry] : active_) {
      if (entry.alert.rule != kShiftRuleName) continue;
      if (entry.alert.subject == prefix ||
          t.prefix.contains(net::Prefix::from_string(entry.alert.subject))) {
        done.push_back(key);
      }
    }
    std::string detail = "re-classified via " + t.ingress.to_string();
    if (const auto it = last_ingress_.find(prefix);
        it != last_ingress_.end() && it->second != t.ingress) {
      detail = "shifted " + it->second.to_string() + " -> " +
               t.ingress.to_string();
    }
    for (const std::string& key : done) resolve(key, t.ts, detail, fired);
    last_ingress_[prefix] = std::move(t.ingress);
  }
  (void)ts;
}

void HealthEngine::evaluate_threshold_rules(util::Timestamp ts,
                                            std::vector<Alert>& fired) {
  for (const ThresholdRule& rule : rules_) {
    for (const auto& info : store_->series_named(rule.series)) {
      if (!labels_match(rule.labels, info.labels)) continue;
      const auto window = store_->window(info.id, rule.window_points);
      if (!window) continue;

      double observed = 0.0;
      bool have = true;
      switch (rule.agg) {
        case ThresholdRule::Agg::Last:
          observed = window->last;
          break;
        case ThresholdRule::Agg::Mean:
          observed = window->mean;
          break;
        case ThresholdRule::Agg::Max:
          observed = window->max;
          break;
        case ThresholdRule::Agg::Delta:
          observed = window->last - window->first;
          have = window->points >= 2;
          break;
        case ThresholdRule::Agg::DeltaRatio: {
          const auto den_id = store_->find(rule.ratio_series, info.labels);
          const auto den = store_->window(den_id, rule.window_points);
          have = den && den->points >= 2 && window->points >= 2 &&
                 (den->last - den->first) > 0.0;
          if (have) {
            observed =
                (window->last - window->first) / (den->last - den->first);
          }
          break;
        }
        case ThresholdRule::Agg::DropVsTrailingMean: {
          have = window->points >= 3;
          if (have) {
            const double n = static_cast<double>(window->points);
            const double trailing =
                (window->mean * n - window->last) / (n - 1.0);
            observed = trailing - window->last;
          }
          break;
        }
      }

      const std::string subject = labels_subject(info.labels);
      const std::string key = rule.name + '|' + subject;
      if (!have) continue;

      const bool firing = rule.cmp == ThresholdRule::Cmp::GreaterThan
                              ? observed > rule.threshold
                              : observed < rule.threshold;
      if (firing) {
        Alert alert;
        alert.rule = rule.name;
        alert.component = rule.component;
        alert.subject = subject;
        alert.severity = rule.severity;
        alert.observed = observed;
        alert.threshold = rule.threshold;
        alert.window_points = window->points;
        alert.first_seen = ts;
        alert.last_seen = ts;
        alert.reason = rule.reason;
        raise_or_refresh(key, std::move(alert), fired);
      } else if (const auto it = active_.find(key); it != active_.end()) {
        if (++it->second.clear_streak >= rule.clear_after) {
          resolve(key, ts, {}, fired);
        }
      }
    }
  }
}

void HealthEngine::publish_metrics() {
  if (registry_ == nullptr) return;
  std::unordered_map<std::string, HealthState> states;
  for (const std::string& name : component_names_) {
    states[name] = HealthState::Ok;
  }
  HealthState worst = HealthState::Ok;
  for (const auto& [key, entry] : active_) {
    const HealthState s = severity_state(entry.alert.severity);
    auto& slot = states[entry.alert.component];
    slot = std::max(slot, s);
    worst = std::max(worst, s);
  }
  for (const auto& [name, state] : states) {
    registry_
        ->gauge("ipd_health_state",
                "Component health (0=ok, 1=degraded, 2=unhealthy)",
                {{"component", name}})
        .set(static_cast<double>(state));
  }
  registry_
      ->gauge("ipd_health_state",
              "Component health (0=ok, 1=degraded, 2=unhealthy)",
              {{"component", "overall"}})
      .set(static_cast<double>(worst));
  registry_->gauge("ipd_alerts_active", "Alerts currently active")
      .set(static_cast<double>(active_.size()));
}

void HealthEngine::evaluate(util::Timestamp ts) {
  std::vector<Alert> fired;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++evaluations_;
    evaluate_shift_rule(ts, fired);
    evaluate_threshold_rules(ts, fired);
    publish_metrics();
  }
  if (on_alert) {
    for (const Alert& alert : fired) on_alert(alert);
  }
}

HealthState HealthEngine::overall() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  HealthState worst = HealthState::Ok;
  for (const auto& [key, entry] : active_) {
    worst = std::max(worst, severity_state(entry.alert.severity));
  }
  return worst;
}

std::vector<HealthEngine::ComponentStatus> HealthEngine::components() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ComponentStatus> out;
  out.reserve(component_names_.size());
  for (const std::string& name : component_names_) {
    ComponentStatus status;
    status.name = name;
    status.reason = "ok";
    for (const auto& [key, entry] : active_) {
      if (entry.alert.component != name) continue;
      const HealthState s = severity_state(entry.alert.severity);
      if (s > status.state || status.state == HealthState::Ok) {
        status.state = std::max(status.state, s);
        status.reason = entry.alert.rule + ": " + entry.alert.reason;
      }
    }
    out.push_back(std::move(status));
  }
  return out;
}

std::vector<Alert> HealthEngine::active_alerts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Alert> out;
  out.reserve(active_.size());
  for (const auto& [key, entry] : active_) out.push_back(entry.alert);
  std::sort(out.begin(), out.end(),
            [](const Alert& a, const Alert& b) { return a.id < b.id; });
  return out;
}

std::vector<Alert> HealthEngine::recent_alerts() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recent_;
}

std::uint64_t HealthEngine::alerts_raised() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return raised_;
}

std::uint64_t HealthEngine::alerts_resolved() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return resolved_;
}

std::uint64_t HealthEngine::evaluations() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evaluations_;
}

std::size_t HealthEngine::rule_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rules_.size();
}

}  // namespace ipd::analysis
