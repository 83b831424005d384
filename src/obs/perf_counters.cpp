#include "obs/perf_counters.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>
#define IPD_HAVE_PERF_EVENTS 1
#else
#define IPD_HAVE_PERF_EVENTS 0
#endif

namespace ipd::obs {

namespace {

util::LogSite g_perf_warn_site;

const char* errno_hint(int err) noexcept {
  switch (err) {
    case EACCES:
    case EPERM:
      return "perf_event_paranoid too strict or CAP_PERFMON missing";
    case ENOSYS:
      return "perf_event_open not supported (kernel or seccomp)";
    case ENOENT:
      return "event not supported on this machine (no PMU exposed?)";
    default:
      return "perf_event_open failed";
  }
}

}  // namespace

const char* to_string(PerfEvent event) noexcept {
  switch (event) {
    case PerfEvent::TaskClock:
      return "task_clock";
    case PerfEvent::Cycles:
      return "cycles";
    case PerfEvent::Instructions:
      return "instructions";
    case PerfEvent::LlcLoads:
      return "llc_loads";
    case PerfEvent::LlcMisses:
      return "llc_misses";
    case PerfEvent::BranchMisses:
      return "branch_misses";
  }
  return "unknown";
}

double PerfPhaseTotals::ipc() const noexcept {
  const std::uint64_t cycles = (*this)[PerfEvent::Cycles];
  if (cycles == 0) return 0.0;
  return static_cast<double>((*this)[PerfEvent::Instructions]) /
         static_cast<double>(cycles);
}

double PerfPhaseTotals::llc_miss_rate() const noexcept {
  const std::uint64_t loads = (*this)[PerfEvent::LlcLoads];
  if (loads == 0) return 0.0;
  return static_cast<double>((*this)[PerfEvent::LlcMisses]) /
         static_cast<double>(loads);
}

// ---------------------------------------------------------------------------
// PerfGroup: one thread's grouped perf fds (+ optional rdpmc mmap pages)

class PerfGroup {
 public:
  PerfGroup(const PerfCountersConfig& config, bool disabled);
  ~PerfGroup();
  PerfGroup(const PerfGroup&) = delete;
  PerfGroup& operator=(const PerfGroup&) = delete;

  bool any_live() const noexcept { return leader_fd_ >= 0; }
  const std::array<bool, kNumPerfEvents>& live() const noexcept {
    return live_;
  }
  int first_errno() const noexcept { return first_errno_; }
  bool rdpmc_available() const noexcept { return rdpmc_ok_; }

  bool read(PerfReading& out) noexcept;
  bool rdpmc_read(PerfPoint& out) const noexcept;

 private:
#if IPD_HAVE_PERF_EVENTS
  static std::uint64_t read_mmap_counter(
      const volatile perf_event_mmap_page* page) noexcept;
  std::array<void*, 3> page_{};  // cycles, instructions, llc_misses
#endif
  int leader_fd_ = -1;
  std::array<int, kNumPerfEvents> fd_;
  // Position of each live event in the group read's values[] (group
  // values come back in event-creation order, failed opens excluded).
  std::array<int, kNumPerfEvents> slot_;
  std::array<bool, kNumPerfEvents> live_{};
  int first_errno_ = 0;
  bool rdpmc_ok_ = false;
  int live_count_ = 0;
};

#if IPD_HAVE_PERF_EVENTS

namespace {

int perf_event_open_syscall(perf_event_attr* attr, int group_fd) noexcept {
  return static_cast<int>(::syscall(SYS_perf_event_open, attr, /*pid=*/0,
                                    /*cpu=*/-1, group_fd, /*flags=*/0UL));
}

perf_event_attr make_attr(PerfEvent event) noexcept {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  // Self-monitoring under perf_event_paranoid <= 2 requires excluding
  // kernel and hypervisor; user-mode cost is what we optimize anyway.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.disabled = 0;  // count from creation; scopes read deltas
  switch (event) {
    case PerfEvent::TaskClock:
      attr.type = PERF_TYPE_SOFTWARE;
      attr.config = PERF_COUNT_SW_TASK_CLOCK;
      break;
    case PerfEvent::Cycles:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_CPU_CYCLES;
      break;
    case PerfEvent::Instructions:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_INSTRUCTIONS;
      break;
    case PerfEvent::LlcLoads:
      attr.type = PERF_TYPE_HW_CACHE;
      attr.config = PERF_COUNT_HW_CACHE_LL |
                    (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                    (PERF_COUNT_HW_CACHE_RESULT_ACCESS << 16);
      break;
    case PerfEvent::LlcMisses:
      attr.type = PERF_TYPE_HW_CACHE;
      attr.config = PERF_COUNT_HW_CACHE_LL |
                    (PERF_COUNT_HW_CACHE_OP_READ << 8) |
                    (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
      break;
    case PerfEvent::BranchMisses:
      attr.type = PERF_TYPE_HARDWARE;
      attr.config = PERF_COUNT_HW_BRANCH_MISSES;
      break;
  }
  return attr;
}

}  // namespace

PerfGroup::PerfGroup(const PerfCountersConfig& config, bool disabled) {
  fd_.fill(-1);
  slot_.fill(-1);
  if (disabled) return;
  for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
    if (config.simulate_errno != 0) {
      if (first_errno_ == 0) first_errno_ = config.simulate_errno;
      continue;
    }
    perf_event_attr attr = make_attr(static_cast<PerfEvent>(i));
    const int fd = perf_event_open_syscall(&attr, leader_fd_);
    if (fd < 0) {
      if (first_errno_ == 0) first_errno_ = errno;
      continue;
    }
    fd_[i] = fd;
    live_[i] = true;
    slot_[i] = live_count_++;
    if (leader_fd_ < 0) leader_fd_ = fd;
  }
  if (!config.per_phase || leader_fd_ < 0) return;

#if defined(__x86_64__) || defined(__i386__)
  // rdpmc pages for the per-phase sampler. Only hardware events have a
  // PMU index; map the three the sampler reads. Any page lacking
  // cap_user_rdpmc (no PMU, or /sys/devices/cpu/rdpmc=0) disables the
  // whole fast path — a partial sampler would skew ratios.
  const std::array<PerfEvent, 3> wanted = {
      PerfEvent::Cycles, PerfEvent::Instructions, PerfEvent::LlcMisses};
  bool all_ok = true;
  for (std::size_t w = 0; w < wanted.size(); ++w) {
    const std::size_t i = static_cast<std::size_t>(wanted[w]);
    if (!live_[i]) {
      all_ok = false;
      break;
    }
    void* page = ::mmap(nullptr, static_cast<std::size_t>(::getpagesize()),
                        PROT_READ, MAP_SHARED, fd_[i], 0);
    if (page == MAP_FAILED) {
      all_ok = false;
      break;
    }
    page_[w] = page;
    const auto* meta = static_cast<const volatile perf_event_mmap_page*>(page);
    if (!meta->cap_user_rdpmc) all_ok = false;
  }
  rdpmc_ok_ = all_ok;
  if (!rdpmc_ok_) {
    for (void*& page : page_) {
      if (page != nullptr) {
        ::munmap(page, static_cast<std::size_t>(::getpagesize()));
        page = nullptr;
      }
    }
  }
#endif
}

PerfGroup::~PerfGroup() {
  for (void* page : page_) {
    if (page != nullptr) {
      ::munmap(page, static_cast<std::size_t>(::getpagesize()));
    }
  }
  for (const int fd : fd_) {
    if (fd >= 0) ::close(fd);
  }
}

bool PerfGroup::read(PerfReading& out) noexcept {
  if (leader_fd_ < 0) return false;
  // PERF_FORMAT_GROUP layout: { nr, time_enabled, time_running, values[nr] }.
  std::array<std::uint64_t, 3 + kNumPerfEvents> buf{};
  const ssize_t want = static_cast<ssize_t>(
      (3 + static_cast<std::size_t>(live_count_)) * sizeof(std::uint64_t));
  if (::read(leader_fd_, buf.data(), static_cast<std::size_t>(want)) != want) {
    return false;
  }
  out = PerfReading{};
  out.time_enabled_ns = buf[1];
  out.time_running_ns = buf[2];
  for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
    if (live_[i]) out.value[i] = buf[3 + static_cast<std::size_t>(slot_[i])];
  }
  return true;
}

std::uint64_t PerfGroup::read_mmap_counter(
    const volatile perf_event_mmap_page* page) noexcept {
#if defined(__x86_64__) || defined(__i386__)
  // The mmap-page seqlock protocol from perf_event_open(2): offset is the
  // kernel-accumulated count; while the event is scheduled on the PMU
  // (index != 0) the in-flight delta is rdpmc(index - 1), sign-extended
  // from pmc_width bits.
  for (;;) {
    const std::uint32_t seq = page->lock;
    __atomic_thread_fence(__ATOMIC_ACQUIRE);
    std::uint64_t count = static_cast<std::uint64_t>(page->offset);
    const std::uint32_t index = page->index;
    if (page->cap_user_rdpmc && index != 0) {
      std::uint64_t pmc = __builtin_ia32_rdpmc(index - 1);
      const unsigned width = page->pmc_width;
      if (width < 64) {
        pmc <<= 64 - width;
        pmc = static_cast<std::uint64_t>(static_cast<std::int64_t>(pmc) >>
                                         (64 - width));
      }
      count += pmc;
    }
    __atomic_thread_fence(__ATOMIC_ACQUIRE);
    if (page->lock == seq) return count;
  }
#else
  (void)page;
  return 0;
#endif
}

bool PerfGroup::rdpmc_read(PerfPoint& out) const noexcept {
  if (!rdpmc_ok_) return false;
  out.cycles = read_mmap_counter(
      static_cast<const volatile perf_event_mmap_page*>(page_[0]));
  out.instructions = read_mmap_counter(
      static_cast<const volatile perf_event_mmap_page*>(page_[1]));
  out.llc_misses = read_mmap_counter(
      static_cast<const volatile perf_event_mmap_page*>(page_[2]));
  return true;
}

#else  // !IPD_HAVE_PERF_EVENTS

PerfGroup::PerfGroup(const PerfCountersConfig& config, bool disabled) {
  fd_.fill(-1);
  slot_.fill(-1);
  if (!disabled) {
    first_errno_ =
        config.simulate_errno != 0 ? config.simulate_errno : ENOSYS;
  }
}
PerfGroup::~PerfGroup() = default;
bool PerfGroup::read(PerfReading&) noexcept { return false; }
bool PerfGroup::rdpmc_read(PerfPoint&) const noexcept { return false; }

#endif  // IPD_HAVE_PERF_EVENTS

// ---------------------------------------------------------------------------
// PerfThreadSampler

bool PerfThreadSampler::read(PerfPoint& out) const noexcept {
  return group_->rdpmc_read(out);
}

// ---------------------------------------------------------------------------
// PerfCounters

struct PerfCounters::PhaseSlot {
  std::string name;
  std::atomic<std::uint64_t> scopes{0};
  std::array<std::atomic<std::uint64_t>, kNumPerfEvents> value{};
  std::atomic<std::uint64_t> time_enabled_ns{0};
  std::atomic<std::uint64_t> time_running_ns{0};
};

struct PerfCounters::ThreadState {
  PerfGroup group;
  PerfThreadSampler sampler;
  explicit ThreadState(const PerfCountersConfig& config, bool disabled)
      : group(config, disabled), sampler(&group) {}
};

namespace {

std::atomic<std::uint64_t> g_perf_instance_ids{1};

/// Single-entry per-thread cache mapping the most recently used
/// PerfCounters instance to this thread's state (type-erased: ThreadState
/// is a private nested type). Instance ids are never reused, so a stale
/// entry can never alias a new instance.
struct ThreadCacheEntry {
  std::uint64_t instance_id = 0;
  void* state = nullptr;
};
thread_local ThreadCacheEntry t_perf_cache;

}  // namespace

PerfCounters::PerfCounters(PerfCountersConfig config)
    : config_(config),
      instance_id_(g_perf_instance_ids.fetch_add(1)),
      phases_(std::make_unique<std::array<PhaseSlot, kMaxPhases>>()) {
  const char* disable = std::getenv("IPD_PERF_DISABLE");
  disabled_ = disable != nullptr && disable[0] != '\0' && disable[0] != '0';

  // Probe availability eagerly on the constructing thread, so callers can
  // branch on available() immediately (and the warn-once fires at startup
  // rather than mid-ingest).
  ThreadState* state = state_for_this_thread();
  available_ = state != nullptr && state->group.any_live();
  if (state != nullptr) {
    event_live_ = state->group.live();
    open_errno_ = state->group.first_errno();
  }
  if (disabled_) {
    util::log_limited(g_perf_warn_site, 1, util::LogLevel::Warn,
                      "perf counters disabled by IPD_PERF_DISABLE");
  } else if (!available_) {
    util::log_limited(g_perf_warn_site, 1, util::LogLevel::Warn,
                      "perf counters unavailable; continuing without them",
                      {{"errno", open_errno_},
                       {"hint", errno_hint(open_errno_)}});
  } else if (!event_live_[static_cast<std::size_t>(PerfEvent::Cycles)]) {
    util::log_limited(g_perf_warn_site, 1, util::LogLevel::Warn,
                      "hardware perf events unavailable; software counters "
                      "only (no PMU exposed?)",
                      {{"errno", open_errno_},
                       {"hint", errno_hint(open_errno_)}});
  }
}

PerfCounters::~PerfCounters() = default;

PerfCounters::ThreadState* PerfCounters::state_for_this_thread() noexcept {
  if (t_perf_cache.instance_id == instance_id_) {
    return static_cast<ThreadState*>(t_perf_cache.state);
  }
  std::unique_ptr<ThreadState> fresh;
  try {
    fresh = std::make_unique<ThreadState>(config_, disabled_);
  } catch (...) {
    return nullptr;
  }
  ThreadState* state = fresh.get();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    threads_.push_back(std::move(fresh));
  }
  t_perf_cache = {instance_id_, state};
  return state;
}

int PerfCounters::phase(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const int n = phase_count_.load(std::memory_order_relaxed);
  for (int i = 0; i < n; ++i) {
    if ((*phases_)[static_cast<std::size_t>(i)].name == name) return i;
  }
  if (n >= kMaxPhases) {
    util::log_warn("perf phase table full; extra phases are not tracked",
                   {{"phase", std::string(name)}, {"max", kMaxPhases}});
    return -1;
  }
  (*phases_)[static_cast<std::size_t>(n)].name = std::string(name);
  phase_count_.store(n + 1, std::memory_order_release);
  return n;
}

PerfThreadSampler* PerfCounters::thread_sampler() noexcept {
  if (!available_ || !config_.per_phase) return nullptr;
  ThreadState* state = state_for_this_thread();
  if (state == nullptr || !state->group.rdpmc_available()) return nullptr;
  return &state->sampler;
}

bool PerfCounters::read_current(PerfReading& out) noexcept {
  if (!available_) return false;
  ThreadState* state = state_for_this_thread();
  return state != nullptr && state->group.read(out);
}

void PerfCounters::add_phase_since(int phase_id,
                                   const PerfReading& start) noexcept {
  PerfReading end;
  if (phase_id < 0 || phase_id >= kMaxPhases || !read_current(end)) return;
  PhaseSlot& slot = (*phases_)[static_cast<std::size_t>(phase_id)];
  slot.scopes.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
    if (end.value[i] != start.value[i]) {
      slot.value[i].fetch_add(end.value[i] - start.value[i],
                              std::memory_order_relaxed);
    }
  }
  slot.time_enabled_ns.fetch_add(end.time_enabled_ns - start.time_enabled_ns,
                                 std::memory_order_relaxed);
  slot.time_running_ns.fetch_add(end.time_running_ns - start.time_running_ns,
                                 std::memory_order_relaxed);
}

void PerfCounters::add_phase_point(int phase_id,
                                   const PerfPoint& delta) noexcept {
  if (phase_id < 0 || phase_id >= kMaxPhases) return;
  if (delta.cycles == 0 && delta.instructions == 0 && delta.llc_misses == 0) {
    return;
  }
  PhaseSlot& slot = (*phases_)[static_cast<std::size_t>(phase_id)];
  slot.scopes.fetch_add(1, std::memory_order_relaxed);
  slot.value[static_cast<std::size_t>(PerfEvent::Cycles)].fetch_add(
      delta.cycles, std::memory_order_relaxed);
  slot.value[static_cast<std::size_t>(PerfEvent::Instructions)].fetch_add(
      delta.instructions, std::memory_order_relaxed);
  slot.value[static_cast<std::size_t>(PerfEvent::LlcMisses)].fetch_add(
      delta.llc_misses, std::memory_order_relaxed);
}

std::vector<PerfPhaseTotals> PerfCounters::snapshot() const {
  const int n = phase_count_.load(std::memory_order_acquire);
  std::vector<PerfPhaseTotals> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const PhaseSlot& slot = (*phases_)[static_cast<std::size_t>(i)];
    PerfPhaseTotals totals;
    totals.name = slot.name;
    totals.scopes = slot.scopes.load(std::memory_order_relaxed);
    for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
      totals.value[e] = slot.value[e].load(std::memory_order_relaxed);
    }
    totals.time_enabled_ns =
        slot.time_enabled_ns.load(std::memory_order_relaxed);
    totals.time_running_ns =
        slot.time_running_ns.load(std::memory_order_relaxed);
    out.push_back(std::move(totals));
  }
  return out;
}

void PerfCounters::publish(MetricsRegistry& registry) {
  registry
      .gauge("ipd_perf_available",
             "1 when perf_event_open counters are live, else 0")
      .set(available_ ? 1.0 : 0.0);
  if (!available_) return;
  for (const PerfPhaseTotals& totals : snapshot()) {
    if (totals.scopes == 0 && totals[PerfEvent::Cycles] == 0) continue;
    const Labels labels = {{"phase", totals.name}};
    registry
        .gauge("ipd_perf_scopes", "completed perf scopes per phase", labels)
        .set(static_cast<double>(totals.scopes));
    for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
      if (!event_live_[e] || totals.value[e] == 0) continue;
      registry
          .gauge(std::string("ipd_perf_") +
                     to_string(static_cast<PerfEvent>(e)),
                 "accumulated perf counter value per phase", labels)
          .set(static_cast<double>(totals.value[e]));
    }
    if (totals[PerfEvent::Cycles] != 0) {
      registry
          .gauge("ipd_perf_ipc", "instructions per cycle, per phase", labels)
          .set(totals.ipc());
    }
    if (totals[PerfEvent::LlcLoads] != 0) {
      registry
          .gauge("ipd_perf_llc_miss_rate",
                 "LLC read misses / LLC read accesses, per phase", labels)
          .set(totals.llc_miss_rate());
    }
  }
}

std::string PerfCounters::to_json() const {
  std::string out = util::format(
      "{\"available\":%s,\"disabled\":%s,\"errno\":%d,\"per_phase\":%s,"
      "\"events\":{",
      available_ ? "true" : "false", disabled_ ? "true" : "false",
      open_errno_, config_.per_phase ? "true" : "false");
  for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
    if (e != 0) out += ',';
    out += util::format("\"%s\":%s", to_string(static_cast<PerfEvent>(e)),
                        event_live_[e] ? "true" : "false");
  }
  out += "}";
  if (!available_ && open_errno_ != 0) {
    out += util::format(",\"error\":\"%s\"", errno_hint(open_errno_));
  }
  out += ",\"phases\":[";
  bool first = true;
  for (const PerfPhaseTotals& totals : snapshot()) {
    if (!first) out += ',';
    first = false;
    out += util::format(
        "{\"name\":\"%s\",\"scopes\":%llu",
        util::json_escape(totals.name).c_str(),
        static_cast<unsigned long long>(totals.scopes));
    for (std::size_t e = 0; e < kNumPerfEvents; ++e) {
      out += util::format(
          ",\"%s\":%llu", to_string(static_cast<PerfEvent>(e)),
          static_cast<unsigned long long>(totals.value[e]));
    }
    out += util::format(
        ",\"ipc\":%.4g,\"llc_miss_rate\":%.4g,"
        "\"time_enabled_ns\":%llu,\"time_running_ns\":%llu}",
        totals.ipc(), totals.llc_miss_rate(),
        static_cast<unsigned long long>(totals.time_enabled_ns),
        static_cast<unsigned long long>(totals.time_running_ns));
  }
  out += "]}";
  return out;
}

std::size_t PerfCounters::memory_bytes() const noexcept {
  const std::lock_guard<std::mutex> lock(mutex_);
  return sizeof(*this) + sizeof(*phases_) +
         threads_.size() * sizeof(ThreadState);
}

}  // namespace ipd::obs
