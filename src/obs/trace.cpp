#include "obs/trace.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace ipd::obs {

namespace {

/// Append one event as a trace-event JSON object. Names and arg keys are
/// static strings from our own call sites (no quotes/control characters),
/// so they are emitted verbatim; values go through format_value for
/// Inf/NaN safety — except that trace-event JSON has no Inf/NaN literal,
/// so those degrade to 0.
void append_event_json(std::string& out, const TraceEvent& event) {
  out += "{\"name\":\"";
  out += event.name;
  out += "\",\"cat\":\"ipd\",\"ph\":\"X\"";
  out += util::format(",\"ts\":%lld,\"dur\":%lld,\"pid\":1,\"tid\":%u",
                      static_cast<long long>(event.ts_us),
                      static_cast<long long>(event.dur_us), event.tid);
  if (event.nargs > 0) {
    out += ",\"args\":{";
    for (std::uint8_t i = 0; i < event.nargs; ++i) {
      if (i) out += ',';
      out += '"';
      out += event.args[i].key;
      out += "\":";
      const double v = event.args[i].value;
      out += (v - v == 0.0) ? format_value(v) : "0";
    }
    out += '}';
  }
  out += '}';
}

// Crash-handler state. Set once by install_crash_handler; read by the
// signal handler. The tracer pointer is never cleared (tracers used with
// the crash handler must live for the rest of the process).
Tracer* g_crash_tracer = nullptr;
char g_crash_path[512] = {0};

void ipd_trace_crash_handler(int signum) {
  // Re-arm default disposition first so a second fault terminates.
  signal(signum, SIG_DFL);
  if (g_crash_tracer != nullptr && g_crash_path[0] != '\0') {
    g_crash_tracer->dump_for_crash(g_crash_path, signum);
  }
  raise(signum);
}

}  // namespace

Tracer::Tracer(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)),
      epoch_ns_(monotonic_ns()) {
  // The full ring is allocated up front: flight recording must not
  // allocate while the process is in trouble.
  ring_.reserve(capacity_);
}

void Tracer::span(const char* name, std::int64_t ts_us, std::int64_t dur_us,
                  std::initializer_list<TraceArg> args,
                  std::uint32_t tid) noexcept {
  TraceEvent event;
  event.name = name;
  event.ts_us = ts_us;
  event.dur_us = dur_us < 0 ? 0 : dur_us;
  event.tid = tid;
  for (const TraceArg& arg : args) {
    if (event.nargs == event.args.size()) break;
    event.args[event.nargs++] = arg;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    ++next_seq_;
  } else {
    ring_[static_cast<std::size_t>(next_seq_++ % capacity_)] = event;
  }
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return ring_.size();
}

std::uint64_t Tracer::total_recorded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_;
}

std::uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_seq_ - ring_.size();
}

std::vector<TraceEvent> Tracer::tail(std::size_t max_events) const {
  std::vector<TraceEvent> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n = std::min(max_events, ring_.size());
    out.reserve(n);
    // Oldest held event is seq next_seq_ - ring_.size(); slot = seq % cap.
    const std::uint64_t first = next_seq_ - ring_.size() + (ring_.size() - n);
    for (std::uint64_t seq = first; seq < next_seq_; ++seq) {
      out.push_back(ring_[static_cast<std::size_t>(seq % capacity_)]);
    }
  }
  return out;
}

std::string Tracer::events_to_json(const std::vector<TraceEvent>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out += ',';
    first = false;
    append_event_json(out, event);
  }
  out += "]}";
  return out;
}

std::string Tracer::to_json(std::size_t max_events) const {
  return events_to_json(tail(max_events));
}

std::size_t Tracer::memory_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sizeof(Tracer) + ring_.capacity() * sizeof(TraceEvent);
}

void Tracer::dump_for_crash(const char* path, int signum) noexcept {
  // Best-effort, async-signal-constrained: no locking, no allocation;
  // snprintf into a static buffer, write(2) straight out.
  const int fd = ::open(path, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) return;
  static char buf[2048];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"crash_signal\":%d,\"displayTimeUnit\":\"ms\","
                        "\"traceEvents\":[",
                        signum);
  (void)!::write(fd, buf, static_cast<std::size_t>(n));
  const std::size_t held = ring_.size() < capacity_ ? ring_.size() : capacity_;
  const std::uint64_t first = next_seq_ >= held ? next_seq_ - held : 0;
  for (std::uint64_t seq = first; seq < next_seq_; ++seq) {
    const TraceEvent& e = ring_[static_cast<std::size_t>(seq % capacity_)];
    if (e.name == nullptr) continue;
    n = std::snprintf(buf, sizeof(buf),
                      "%s{\"name\":\"%s\",\"cat\":\"ipd\",\"ph\":\"X\","
                      "\"ts\":%lld,\"dur\":%lld,\"pid\":1,\"tid\":%u}",
                      seq == first ? "" : ",", e.name,
                      static_cast<long long>(e.ts_us),
                      static_cast<long long>(e.dur_us), e.tid);
    if (n > 0) (void)!::write(fd, buf, static_cast<std::size_t>(n));
  }
  (void)!::write(fd, "]}\n", 3);
  ::close(fd);
}

void Tracer::install_crash_handler(const std::string& path) {
  g_crash_tracer = this;
  std::snprintf(g_crash_path, sizeof(g_crash_path), "%s", path.c_str());
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGABRT}) {
    signal(sig, ipd_trace_crash_handler);
  }
}

}  // namespace ipd::obs
