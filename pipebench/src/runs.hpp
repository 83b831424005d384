// The benchmark's two kinds of run over one Input: live rounds through the
// threaded CollectorService (end-to-end metrics) and single-thread replays
// through the same public calls (per-layer metrics, engine memory, and the
// Table-3 dump the output check compares).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/engine_base.hpp"
#include "core/lpm_table.hpp"

namespace pipebench {

/// One live round: construct the service, warm it up until the first table
/// is published (setup), then run the timed window and stop the service.
struct RoundResult {
  double setup_s = 0.0;
  double window_s = 0.0;
  std::uint64_t offered = 0;   // warm-up + window flows submitted
  std::uint64_t ingested = 0;  // engine flows after stop()
  std::uint64_t window_flows = 0;
  std::int64_t producer_cpu_ns = 0;  // window only, all producers
  std::uint64_t malformed = 0;
  // Feeder counters over the window: submits that admitted nothing, tails
  // resubmitted after a partial admission, and (layer timing only) the
  // time spent inside submit_datagram.
  std::uint64_t ring_full_waits = 0;
  std::uint64_t tails_resubmitted = 0;
  std::int64_t submit_ns = 0;
  std::vector<double> late_ms;         // feeder lateness per datagram
  std::vector<double> publish_lag_ms;  // one per table published in window
  std::vector<double> lookup_block_ns;  // ns per lookup, one per block
  std::uint64_t lookups = 0;
  double lookup_window_s = 0.0;
  std::uint64_t checked = 0;
  std::uint64_t correct = 0;
  std::size_t final_table_rows = 0;
  std::string error;  // non-empty: the round's outputs failed a check
};

RoundResult run_round(const Input& in, bool layer_timing, bool check_accuracy);

/// Lookups on a quiescent table from one thread, timed in blocks.
struct LookupStats {
  std::vector<double> block_ns;  // ns per lookup, one per block
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  double wall_s = 0.0;
};

LookupStats quiescent_lookups(const ipd::core::LpmTable& table,
                              const std::vector<ipd::net::IpAddress>& keys,
                              std::size_t blocks);

inline constexpr std::size_t kLookupBlock = 4096;

/// One span recorded by the traced replay.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

struct ReplayResult {
  double wall_s = 0.0;
  std::uint64_t flows = 0;
  std::uint64_t malformed = 0;
  std::uint64_t peak_memory_bytes = 0;
  std::vector<ipd::core::CycleStats> cycles;
  std::vector<double> snapshot_ms;
  std::vector<double> lpm_build_ms;
  std::size_t lpm_rows = 0;
  std::size_t parallel_units = 1;
  std::string table3;  // final snapshot, one format_row line per range
  std::shared_ptr<const ipd::core::LpmTable> table;
  std::vector<Span> spans;  // traced pass only
};

/// Replay warm-up + window on the calling thread in the collector's order:
/// decode one batch per datagram, statistical time, batched apply, cycles
/// and publishes on data time. `traced` records spans around every layer
/// call and attaches a metrics registry so cycles carry phase times.
ReplayResult replay(const Input& in, bool traced);

}  // namespace pipebench
