// Structure-of-arrays flow batch: the common currency of the batched
// ingest path.
//
// Decoders append into parallel arrays (timestamps, source addresses,
// ingress links, ...) so downstream stages can stream over exactly the
// columns they touch: the engine's interleaved trie descents read only
// src_ip, the weight computation reads only bytes, and the per-record
// FlowRecord view is materialized lazily for slow paths (flow tracing,
// validation buffers). Index i across every column is one flow record,
// in arrival order — batching never reorders ingest.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "netflow/flow_record.hpp"

namespace ipd::netflow {

struct FlowBatch {
  std::vector<util::Timestamp> ts;
  std::vector<net::IpAddress> src_ip;
  std::vector<net::IpAddress> dst_ip;
  std::vector<std::uint32_t> packets;
  std::vector<std::uint64_t> bytes;
  std::vector<topology::LinkId> ingress;

  std::size_t size() const noexcept { return ts.size(); }
  bool empty() const noexcept { return ts.empty(); }

  void clear() noexcept {
    ts.clear();
    src_ip.clear();
    dst_ip.clear();
    packets.clear();
    bytes.clear();
    ingress.clear();
  }

  void reserve(std::size_t n) {
    ts.reserve(n);
    src_ip.reserve(n);
    dst_ip.reserve(n);
    packets.reserve(n);
    bytes.reserve(n);
    ingress.reserve(n);
  }

  /// Make room for `n` more records. Capacity at least doubles whenever it
  /// has to grow, so appending many datagrams into one batch reallocates
  /// O(log n) times rather than on every append.
  void reserve_more(std::size_t n) {
    const std::size_t need = size() + n;
    if (need > ts.capacity()) reserve(std::max(need, 2 * ts.capacity()));
  }

  void push_back(const FlowRecord& r) {
    ts.push_back(r.ts);
    src_ip.push_back(r.src_ip);
    dst_ip.push_back(r.dst_ip);
    packets.push_back(r.packets);
    bytes.push_back(r.bytes);
    ingress.push_back(r.ingress);
  }

  /// Append one record column-wise (decoder fast paths that never build a
  /// FlowRecord).
  void push_back(util::Timestamp t, net::IpAddress src, net::IpAddress dst,
                 std::uint32_t pkts, std::uint64_t octets,
                 topology::LinkId link) {
    ts.push_back(t);
    src_ip.push_back(src);
    dst_ip.push_back(dst);
    packets.push_back(pkts);
    bytes.push_back(octets);
    ingress.push_back(link);
  }

  /// Append rows [begin, end) of `other`, column by column.
  void append_rows(const FlowBatch& other, std::size_t begin,
                   std::size_t end) {
    const auto range = [&](auto& dst, const auto& src) {
      dst.insert(dst.end(), src.begin() + static_cast<std::ptrdiff_t>(begin),
                 src.begin() + static_cast<std::ptrdiff_t>(end));
    };
    range(ts, other.ts);
    range(src_ip, other.src_ip);
    range(dst_ip, other.dst_ip);
    range(packets, other.packets);
    range(bytes, other.bytes);
    range(ingress, other.ingress);
  }

  /// Keep the first `n` rows (n <= size()); capacity is kept.
  void truncate(std::size_t n) {
    const auto cut = [n](auto& column) {
      column.erase(column.begin() + static_cast<std::ptrdiff_t>(n),
                   column.end());
    };
    cut(ts);
    cut(src_ip);
    cut(dst_ip);
    cut(packets);
    cut(bytes);
    cut(ingress);
  }

  /// Materialize the row view of record i (slow paths only).
  FlowRecord record(std::size_t i) const {
    return FlowRecord{ts[i],      src_ip[i], dst_ip[i],
                      packets[i], bytes[i],  ingress[i]};
  }

  /// Heap held by the parallel arrays (capacity, not size — this feeds the
  /// exact working-set accounting).
  std::uint64_t memory_bytes() const noexcept {
    return ts.capacity() * sizeof(util::Timestamp) +
           src_ip.capacity() * sizeof(net::IpAddress) +
           dst_ip.capacity() * sizeof(net::IpAddress) +
           packets.capacity() * sizeof(std::uint32_t) +
           bytes.capacity() * sizeof(std::uint64_t) +
           ingress.capacity() * sizeof(topology::LinkId);
  }

  friend bool operator==(const FlowBatch&, const FlowBatch&) = default;
};

/// Copy a row-major span into a batch (bridging existing call sites).
inline void append_records(FlowBatch& batch,
                           std::span<const FlowRecord> records) {
  batch.reserve_more(records.size());
  for (const FlowRecord& r : records) batch.push_back(r);
}

}  // namespace ipd::netflow
