// Versioned engine snapshot / warm restart.
//
// A snapshot captures the *complete* algorithm state of an engine —
// per-family trie structure with exact arena layout (node indices, free
// chain, high-water mark), every leaf's FlatIpTable with exact slot
// placement and capacity, SmallVec ingress counters with exact
// capacities and bit-exact float totals, lifetime stats, and the runner
// clock — such that a restored engine continues *byte-identically* to
// the uninterrupted run: same InstanceOutput rows, same per-cycle
// transition stream, same memory_bytes(). That determinism claim is
// enforced by test_snapshot_differential.
//
// Restore is shard-count-agnostic: a snapshot taken at any shard count
// restores into an engine of any other, because the engine operates one
// physical trie per family whatever its shard count — the restored engine
// just rebuilds its cut over the restored trie (DESIGN.md §10 "re-shard
// semantics").
//
// Fail-closed: restore parses and validates the entire file into staged
// structures (fresh node pools, decoded tables) and only then swaps them
// into the engine. Any magic/version/checksum/structural failure throws
// util::SnapshotError and leaves the engine exactly as it was.
//
// File container: see util/snapshot_io.hpp. Sections used here:
//   1 meta    — shard shape, clock, lifetime stats, build info, params hash
//   2 params  — canonical IpdParams encoding (its crc64 is the params hash)
//   3 trie v4 — arena shape + node records
//   4 trie v6
//   5 lpm     — classified (prefix, ingress) rows, address order, so a
//               restored process can answer ingress queries before its
//               first cycle without decoding the tries
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_base.hpp"
#include "obs/metrics.hpp"
#include "util/snapshot_io.hpp"
#include "util/time.hpp"

namespace ipd::core {

/// Bump on any incompatible change to the section payload encodings.
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

// Section ids within the snapshot container.
inline constexpr std::uint32_t kSectionMeta = 1;
inline constexpr std::uint32_t kSectionParams = 2;
inline constexpr std::uint32_t kSectionTrieV4 = 3;
inline constexpr std::uint32_t kSectionTrieV6 = 4;
inline constexpr std::uint32_t kSectionLpm = 5;

/// The runner's position in simulated time at snapshot instant: resuming
/// a BinnedRunner from these values continues the cycle/snapshot cadence
/// exactly where the donor left off.
struct SnapshotClock {
  util::Timestamp saved_at = 0;       // bin boundary the snapshot was cut at
  util::Timestamp next_cycle = 0;     // donor runner's next stage-2 cycle
  util::Timestamp next_snapshot = 0;  // donor runner's next 5-min bin

  friend bool operator==(const SnapshotClock&, const SnapshotClock&) = default;
};

/// Header-level description of a snapshot, readable without decoding the
/// trie payload (the /snapshot endpoint and `ipd_replay` print this).
struct SnapshotInfo {
  std::uint32_t format_version = 0;
  std::string build_info;           // writer's build, informational only
  std::uint64_t params_hash = 0;    // crc64 of the canonical params encoding
  bool sharded = false;             // donor had shard_bits > 0 (informational)
  int shard_bits = 0;
  SnapshotClock clock;
  EngineStats stats;
  std::uint64_t lpm_rows = 0;       // classified ranges at snapshot time
};

/// One classified range, as served by the snapshot's LPM section.
struct LpmRow {
  net::Prefix prefix;
  IngressId ingress;
};

/// Canonical byte encoding of the params (snapshot section 2). Two params
/// structs are equal iff their encodings are equal, so restore compares
/// encodings directly and the params hash is the encoding's crc64.
std::string encode_params(const IpdParams& params);
std::uint64_t params_hash(const IpdParams& params);

/// Serialize the full engine state. The engine's structure lock is taken
/// exclusively for the duration, so concurrent ingest and cycles wait and
/// the encoded tries are one consistent instant.
std::string save_snapshot(const IpdEngine& engine, const SnapshotClock& clock);

/// save_snapshot + atomic file publish (tmp + fsync + rename).
void save_snapshot_file(const std::string& path, const IpdEngine& engine,
                        const SnapshotClock& clock);

/// Decode and validate header + meta only (cheap; no trie decode).
SnapshotInfo read_snapshot_info(std::string_view data);
SnapshotInfo read_snapshot_info_file(const std::string& path);

/// Decode the LPM section: every classified range with its ingress, in
/// address order (v4 then v6).
std::vector<LpmRow> read_snapshot_lpm(std::string_view data);

/// Replace `engine`'s algorithm state with the snapshot's. The engine
/// must have been constructed with byte-identical params (compared via
/// encode_params; kParamsMismatch otherwise) but may have any shape —
/// restoring an N-shard snapshot into an M-shard engine rebuilds the cut
/// over the restored tries. Fully fail-closed: on any SnapshotError the
/// engine is untouched. Returns the donor's clock for runner resume.
SnapshotClock restore_snapshot(IpdEngine& engine, std::string_view data);
SnapshotClock restore_snapshot_file(IpdEngine& engine,
                                    const std::string& path);

/// Mutex-guarded snapshot lifecycle state + its metric surface
/// (ipd_snapshot_*). One instance per process, shared by whatever does
/// the saving (ipd_replay) and whatever reports (/snapshot endpoint,
/// TSDB, the snapshot-age health rule).
class SnapshotTelemetry {
 public:
  struct State {
    std::uint64_t saves = 0;
    std::uint64_t restores = 0;
    std::uint64_t errors = 0;
    std::uint64_t last_bytes = 0;
    double last_save_seconds = 0.0;
    double last_restore_seconds = 0.0;
    util::Timestamp last_saved_at = 0;  // data time of the newest snapshot
    double age_seconds = -1.0;          // -1 until a snapshot exists
    std::string path;                   // where snapshots are written
    std::string last_error;
  };

  /// Create the ipd_snapshot_* instruments in `registry`; updates flow
  /// through from then on. Call before the first record_*.
  void bind(obs::MetricsRegistry& registry);

  void set_path(std::string path);
  void record_save(std::uint64_t bytes, double seconds,
                   util::Timestamp data_ts);
  void record_restore(std::uint64_t bytes, double seconds,
                      util::Timestamp data_ts);
  void record_error(const std::string& what);

  /// Refresh ipd_snapshot_age_seconds against the current data time
  /// (called from the runner's per-bin metrics hook so the health rule
  /// sees a live value).
  void update_age(util::Timestamp now_data_ts);

  State state() const;

 private:
  mutable std::mutex mutex_;
  State state_;
  obs::Counter* saves_total_ = nullptr;
  obs::Counter* restores_total_ = nullptr;
  obs::Counter* errors_total_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Gauge* age_gauge_ = nullptr;
  obs::Histogram* save_seconds_ = nullptr;
};

}  // namespace ipd::core
