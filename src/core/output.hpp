// IPD output snapshot — the paper's raw output rows (Table 3):
//
//   timestamp  ip  s_ingress  s_ipcount  n_cidr  range  ingress(breakdown)
//
// A snapshot covers all current leaves; classified rows carry the prevalent
// ingress, monitoring rows the current top candidate. The deployment's
// stage-2 consumers filter to prevalent (classified) rows only.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/ingress.hpp"
#include "core/trie.hpp"
#include "net/prefix.hpp"
#include "topology/topology.hpp"
#include "util/time.hpp"

namespace ipd::core {

struct RangeOutput {
  util::Timestamp ts = 0;
  bool classified = false;
  double s_ingress = 0.0;  // confidence: share of the prevalent/top ingress
  double s_ipcount = 0.0;  // total samples held for the range
  double n_cidr = 0.0;     // the range's classification threshold
  net::Prefix range;
  IngressId ingress;  // prevalent (classified) or top candidate
  // All ingress links and their counts, descending (Table 3 parentheses).
  std::vector<std::pair<topology::LinkId, double>> breakdown;
};

using Snapshot = std::vector<RangeOutput>;

class IpdEngine;

/// Extract the current ranges of both address families (leaves come back
/// in address order, so the same partition yields the same snapshot at any
/// shard count).
/// If `classified_only`, monitoring ranges are skipped (the deployment's
/// stage-2 filter).
Snapshot take_snapshot(const IpdEngine& engine, util::Timestamp ts,
                       bool classified_only = false);

/// One Table-3-style text line. Uses paper naming ("C2-R30.1") when a
/// topology is supplied, raw ids otherwise.
std::string format_row(const RangeOutput& row,
                       const topology::Topology* topo = nullptr);

/// Parse a raw-id (non-topology) line produced by format_row back into a
/// RangeOutput. The deployment stores years of such rows; this enables
/// offline tooling over stored output. Throws std::invalid_argument on
/// malformed input. The `classified` flag is restored from the confidence
/// annotation (rows written with classified=false lose that distinction
/// and are re-marked classified when s_ingress >= q_hint).
RangeOutput parse_row(std::string_view line, double q_hint = 0.95);

}  // namespace ipd::core
