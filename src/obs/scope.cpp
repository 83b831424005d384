#include "obs/scope.hpp"

#include "obs/metrics.hpp"

namespace ipd::obs {

Layer::Layer(const char* name, std::uint32_t lane, Histogram* hist,
             Tracer* tracer, PerfCounters* perf)
    : name_(name), lane_(lane), hist_(hist), tracer_(tracer) {
  // Registered even when unavailable, so /perf lists the phase.
  const int phase = perf ? perf->phase(name) : -1;
  if (phase >= 0 && perf->available()) {
    perf_ = perf;
    perf_phase_ = phase;
  }
  active_ = hist_ != nullptr || tracer_ != nullptr || perf_ != nullptr;
}

void Layer::record(std::int64_t start_ns, std::int64_t ns,
                   const PerfPoint* point,
                   std::initializer_list<TraceArg> args) const noexcept {
  if (hist_) hist_->observe(static_cast<double>(ns) * 1e-9);
  if (tracer_) {
    tracer_->span(name_, tracer_->ts_us(start_ns), ns / 1000, args, lane_);
  }
  if (point && perf_) perf_->add_phase_point(perf_phase_, *point);
}

Scope::Scope(const Layer& layer, bool always_time) noexcept {
  if (!layer.active_ && !always_time) return;
  layer_ = &layer;
  // Counters first and last, so the timed interval excludes their reads.
  if (layer.perf_) perf_ok_ = layer.perf_->read_current(perf_start_);
  start_ns_ = monotonic_ns();
}

std::int64_t Scope::close(std::initializer_list<TraceArg> args) noexcept {
  if (layer_ == nullptr) return elapsed_ns_;
  const Layer& layer = *layer_;
  layer_ = nullptr;
  elapsed_ns_ = monotonic_ns() - start_ns_;
  if (perf_ok_) layer.perf_->add_phase_since(layer.perf_phase_, perf_start_);
  layer.record(start_ns_, elapsed_ns_, nullptr, args);
  return elapsed_ns_;
}

}  // namespace ipd::obs
