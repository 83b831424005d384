#include "netflow/v5.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "netflow/simd.hpp"

namespace ipd::netflow::v5 {

namespace {

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint16_t get16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>((in[at] << 8) | in[at + 1]);
}

std::uint32_t get32(std::span<const std::uint8_t> in, std::size_t at) {
  return (static_cast<std::uint32_t>(in[at]) << 24) |
         (static_cast<std::uint32_t>(in[at + 1]) << 16) |
         (static_cast<std::uint32_t>(in[at + 2]) << 8) |
         static_cast<std::uint32_t>(in[at + 3]);
}

/// SWAR word load: 8 big-endian wire bytes as one host-order uint64. The
/// memcpy is the strict-aliasing-safe unaligned load; it and the bswap
/// both compile to single instructions.
std::uint64_t load64be(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return v;
#else
  return __builtin_bswap64(v);
#endif
}

}  // namespace

std::vector<std::uint8_t> encode(const Packet& packet) {
  const std::size_t n = packet.records.size();
  if (n == 0 || n > kMaxRecordsPerPacket) {
    throw std::invalid_argument("v5::encode: record count out of [1,30]");
  }
  if (packet.header.count != 0 && packet.header.count != n) {
    throw std::invalid_argument("v5::encode: header.count mismatch");
  }
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + n * kRecordBytes);

  const Header& h = packet.header;
  put16(out, kVersion);
  put16(out, static_cast<std::uint16_t>(n));
  put32(out, h.sys_uptime_ms);
  put32(out, h.unix_secs);
  put32(out, h.unix_nsecs);
  put32(out, h.flow_sequence);
  out.push_back(h.engine_type);
  out.push_back(h.engine_id);
  put16(out, h.sampling);

  for (const Record& r : packet.records) {
    put32(out, r.src_addr);
    put32(out, r.dst_addr);
    put32(out, r.next_hop);
    put16(out, r.input_snmp);
    put16(out, r.output_snmp);
    put32(out, r.packets);
    put32(out, r.octets);
    put32(out, r.first_ms);
    put32(out, r.last_ms);
    put16(out, r.src_port);
    put16(out, r.dst_port);
    out.push_back(0);  // pad1
    out.push_back(r.tcp_flags);
    out.push_back(r.protocol);
    out.push_back(r.tos);
    put16(out, r.src_as);
    put16(out, r.dst_as);
    out.push_back(r.src_mask);
    out.push_back(r.dst_mask);
    out.push_back(0);  // pad2
    out.push_back(0);
  }
  return out;
}

std::optional<Packet> decode(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  if (get16(bytes, 0) != kVersion) return std::nullopt;
  Packet packet;
  Header& h = packet.header;
  h.version = kVersion;
  h.count = get16(bytes, 2);
  if (h.count == 0 || h.count > kMaxRecordsPerPacket) return std::nullopt;
  if (bytes.size() != kHeaderBytes + h.count * kRecordBytes) return std::nullopt;
  h.sys_uptime_ms = get32(bytes, 4);
  h.unix_secs = get32(bytes, 8);
  h.unix_nsecs = get32(bytes, 12);
  h.flow_sequence = get32(bytes, 16);
  h.engine_type = bytes[20];
  h.engine_id = bytes[21];
  h.sampling = get16(bytes, 22);

  packet.records.reserve(h.count);
  for (std::size_t i = 0; i < h.count; ++i) {
    const std::size_t at = kHeaderBytes + i * kRecordBytes;
    Record r;
    r.src_addr = get32(bytes, at);
    r.dst_addr = get32(bytes, at + 4);
    r.next_hop = get32(bytes, at + 8);
    r.input_snmp = get16(bytes, at + 12);
    r.output_snmp = get16(bytes, at + 14);
    r.packets = get32(bytes, at + 16);
    r.octets = get32(bytes, at + 20);
    r.first_ms = get32(bytes, at + 24);
    r.last_ms = get32(bytes, at + 28);
    r.src_port = get16(bytes, at + 32);
    r.dst_port = get16(bytes, at + 34);
    r.tcp_flags = bytes[at + 37];
    r.protocol = bytes[at + 38];
    r.tos = bytes[at + 39];
    r.src_as = get16(bytes, at + 40);
    r.dst_as = get16(bytes, at + 42);
    r.src_mask = bytes[at + 44];
    r.dst_mask = bytes[at + 45];
    packet.records.push_back(r);
  }
  return packet;
}

std::vector<FlowRecord> to_flow_records(const Packet& packet,
                                        topology::RouterId exporter_router) {
  std::vector<FlowRecord> out;
  out.reserve(packet.records.size());
  for (const Record& r : packet.records) {
    FlowRecord flow;
    flow.ts = static_cast<util::Timestamp>(packet.header.unix_secs);
    flow.src_ip = net::IpAddress::v4(r.src_addr);
    flow.dst_ip = net::IpAddress::v4(r.dst_addr);
    flow.packets = r.packets;
    flow.bytes = r.octets;
    flow.ingress = topology::LinkId{
        exporter_router, static_cast<topology::InterfaceIndex>(r.input_snmp)};
    out.push_back(flow);
  }
  return out;
}

std::optional<std::size_t> decode_batch_swar(
    std::span<const std::uint8_t> bytes, topology::RouterId exporter_router,
    FlowBatch& out) {
  // Same admission rules as decode(): any malformation rejects the whole
  // datagram before a single row is appended.
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  if (get16(bytes, 0) != kVersion) return std::nullopt;
  const std::uint16_t count = get16(bytes, 2);
  if (count == 0 || count > kMaxRecordsPerPacket) return std::nullopt;
  if (bytes.size() != kHeaderBytes + count * kRecordBytes) return std::nullopt;
  const auto ts = static_cast<util::Timestamp>(get32(bytes, 8));

  out.reserve_more(count);
  const std::uint8_t* p = bytes.data() + kHeaderBytes;
  for (std::size_t i = 0; i < count; ++i, p += kRecordBytes) {
    // Record layout: src(4) dst(4) next_hop(4) input(2) output(2)
    //                packets(4) octets(4) ...
    // Three 64-bit big-endian loads cover every field IPD consumes.
    const std::uint64_t w0 = load64be(p);       // src | dst
    const std::uint64_t w1 = load64be(p + 8);   // next_hop | input | output
    const std::uint64_t w2 = load64be(p + 16);  // packets | octets
    out.push_back(
        ts, net::IpAddress::v4(static_cast<std::uint32_t>(w0 >> 32)),
        net::IpAddress::v4(static_cast<std::uint32_t>(w0)),
        static_cast<std::uint32_t>(w2 >> 32),
        static_cast<std::uint32_t>(w2),
        topology::LinkId{exporter_router, static_cast<topology::InterfaceIndex>(
                                              (w1 >> 16) & 0xFFFFu)});
  }
  return count;
}

std::optional<std::size_t> decode_batch_scalar(
    std::span<const std::uint8_t> bytes, topology::RouterId exporter_router,
    FlowBatch& out) {
  const std::optional<Packet> packet = decode(bytes);
  if (!packet) return std::nullopt;
  const std::vector<FlowRecord> records =
      to_flow_records(*packet, exporter_router);
  append_records(out, records);
  return records.size();
}

std::optional<std::size_t> decode_batch(std::span<const std::uint8_t> bytes,
                                        topology::RouterId exporter_router,
                                        FlowBatch& out) {
  return simd::swar_enabled() ? decode_batch_swar(bytes, exporter_router, out)
                              : decode_batch_scalar(bytes, exporter_router,
                                                    out);
}

std::vector<Packet> from_flow_records(std::span<const FlowRecord> records,
                                      std::uint32_t first_sequence) {
  std::vector<Packet> out;
  std::uint32_t sequence = first_sequence;
  for (std::size_t i = 0; i < records.size(); i += kMaxRecordsPerPacket) {
    Packet packet;
    packet.header.flow_sequence = sequence;
    const std::size_t n =
        std::min(kMaxRecordsPerPacket, records.size() - i);
    packet.header.count = static_cast<std::uint16_t>(n);
    packet.header.unix_secs = static_cast<std::uint32_t>(records[i].ts);
    for (std::size_t k = 0; k < n; ++k) {
      const FlowRecord& flow = records[i + k];
      if (!flow.src_ip.is_v4()) {
        throw std::invalid_argument("v5::from_flow_records: IPv6 flow");
      }
      Record r;
      r.src_addr = flow.src_ip.v4_value();
      r.dst_addr = flow.dst_ip.is_v4() ? flow.dst_ip.v4_value() : 0;
      r.input_snmp = flow.ingress.iface;
      r.packets = flow.packets;
      r.octets = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(flow.bytes, 0xFFFFFFFFull));
      packet.records.push_back(r);
    }
    sequence += static_cast<std::uint32_t>(n);
    out.push_back(std::move(packet));
  }
  return out;
}

}  // namespace ipd::netflow::v5
