#include "netflow/ipfix.hpp"

#include <algorithm>
#include <cstring>

#include "netflow/simd.hpp"

namespace ipd::netflow::ipfix {

namespace {

void put16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v));
}

void put32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put16(out, static_cast<std::uint16_t>(v >> 16));
  put16(out, static_cast<std::uint16_t>(v));
}

void put64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put32(out, static_cast<std::uint32_t>(v >> 32));
  put32(out, static_cast<std::uint32_t>(v));
}

std::uint16_t get16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>((in[at] << 8) | in[at + 1]);
}

std::uint32_t get32(std::span<const std::uint8_t> in, std::size_t at) {
  return (static_cast<std::uint32_t>(get16(in, at)) << 16) | get16(in, at + 2);
}

std::uint64_t get64(std::span<const std::uint8_t> in, std::size_t at) {
  return (static_cast<std::uint64_t>(get32(in, at)) << 32) | get32(in, at + 4);
}

std::uint64_t template_key(std::uint32_t domain, std::uint16_t id) {
  return (static_cast<std::uint64_t>(domain) << 16) | id;
}

/// SWAR word loads for the fixed-layout fast path (strict-aliasing-safe
/// unaligned loads; memcpy + bswap each compile to one instruction).
std::uint64_t load64be(const std::uint8_t* p) noexcept {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return v;
#else
  return __builtin_bswap64(v);
#endif
}

std::uint32_t load32be(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
  return v;
#else
  return __builtin_bswap32(v);
#endif
}

void append_template_record(std::vector<std::uint8_t>& out, const Template& t) {
  put16(out, t.template_id);
  put16(out, static_cast<std::uint16_t>(t.fields.size()));
  for (const auto& f : t.fields) {
    put16(out, f.id);
    put16(out, f.length);
  }
}

void append_record(std::vector<std::uint8_t>& out, const FlowRecord& flow,
                   bool v6) {
  if (v6) {
    put64(out, flow.src_ip.hi());
    put64(out, flow.src_ip.lo());
    if (flow.dst_ip.is_v4()) {
      put64(out, 0);
      put64(out, flow.dst_ip.v4_value());
    } else {
      put64(out, flow.dst_ip.hi());
      put64(out, flow.dst_ip.lo());
    }
  } else {
    put32(out, flow.src_ip.v4_value());
    put32(out, flow.dst_ip.is_v4() ? flow.dst_ip.v4_value() : 0);
  }
  put32(out, flow.ingress.iface);
  put64(out, flow.bytes);
  put64(out, flow.packets);
  put32(out, static_cast<std::uint32_t>(flow.ts));
}

}  // namespace

Template v4_flow_template() {
  return Template{256,
                  {{kIeSourceIPv4Address, 4},
                   {kIeDestinationIPv4Address, 4},
                   {kIeIngressInterface, 4},
                   {kIeOctetDeltaCount, 8},
                   {kIePacketDeltaCount, 8},
                   {kIeFlowStartSeconds, 4}}};
}

Template v6_flow_template() {
  return Template{257,
                  {{kIeSourceIPv6Address, 16},
                   {kIeDestinationIPv6Address, 16},
                   {kIeIngressInterface, 4},
                   {kIeOctetDeltaCount, 8},
                   {kIePacketDeltaCount, 8},
                   {kIeFlowStartSeconds, 4}}};
}

Exporter::Exporter(std::uint32_t observation_domain,
                   std::uint32_t template_refresh)
    : domain_(observation_domain),
      template_refresh_(std::max<std::uint32_t>(template_refresh, 1)) {}

std::vector<std::vector<std::uint8_t>> Exporter::export_flows(
    std::span<const FlowRecord> records, std::uint32_t export_time) {
  std::vector<std::vector<std::uint8_t>> messages;

  std::vector<const FlowRecord*> v4, v6;
  for (const auto& r : records) {
    (r.src_ip.is_v4() ? v4 : v6).push_back(&r);
  }

  std::vector<std::uint8_t> msg;
  const auto begin_message = [&] {
    msg.clear();
    put16(msg, kVersion);
    put16(msg, 0);  // length backpatched
    put32(msg, export_time);
    put32(msg, sequence_);
    put32(msg, domain_);
  };
  const auto end_message = [&] {
    msg[2] = static_cast<std::uint8_t>(msg.size() >> 8);
    msg[3] = static_cast<std::uint8_t>(msg.size());
    messages.push_back(msg);
  };

  begin_message();
  if (!templates_sent_ || messages_since_templates_ >= template_refresh_) {
    // Template set: header (id=2, length) + both templates.
    std::vector<std::uint8_t> set;
    append_template_record(set, v4_flow_template());
    append_template_record(set, v6_flow_template());
    put16(msg, kTemplateSetId);
    put16(msg, static_cast<std::uint16_t>(set.size() + 4));
    msg.insert(msg.end(), set.begin(), set.end());
    templates_sent_ = true;
    messages_since_templates_ = 0;
  }

  const auto append_data_set = [&](const std::vector<const FlowRecord*>& flows,
                                   const Template& tmpl, bool is_v6) {
    if (flows.empty()) return;
    std::vector<std::uint8_t> set;
    for (const auto* flow : flows) {
      append_record(set, *flow, is_v6);
      sequence_ += 1;  // IPFIX sequence counts data records
    }
    put16(msg, tmpl.template_id);
    put16(msg, static_cast<std::uint16_t>(set.size() + 4));
    msg.insert(msg.end(), set.begin(), set.end());
  };
  append_data_set(v4, v4_flow_template(), false);
  append_data_set(v6, v6_flow_template(), true);
  end_message();
  ++messages_since_templates_;
  return messages;
}

const Template* Parser::find_template(std::uint32_t domain,
                                      std::uint16_t id) const {
  const auto it = templates_.find(template_key(domain, id));
  return it == templates_.end() ? nullptr : &it->second;
}

bool Parser::parse(std::span<const std::uint8_t> bytes,
                   topology::RouterId exporter_router,
                   std::vector<FlowRecord>& out) {
  ++stats_.messages;
  if (bytes.size() < kMessageHeaderBytes || get16(bytes, 0) != kVersion) {
    ++stats_.malformed;
    return false;
  }
  const std::uint16_t length = get16(bytes, 2);
  if (length != bytes.size()) {
    ++stats_.malformed;
    return false;
  }
  const std::uint32_t export_time = get32(bytes, 4);
  const std::uint32_t domain = get32(bytes, 12);

  std::size_t at = kMessageHeaderBytes;
  while (at + 4 <= bytes.size()) {
    const std::uint16_t set_id = get16(bytes, at);
    const std::uint16_t set_len = get16(bytes, at + 2);
    if (set_len < 4 || at + set_len > bytes.size()) {
      ++stats_.malformed;
      return false;
    }
    const auto body = bytes.subspan(at + 4, set_len - 4);
    if (set_id == kTemplateSetId) {
      if (!parse_template_set(body, domain)) {
        ++stats_.malformed;
        return false;
      }
    } else if (set_id >= kMinDataSetId) {
      if (!parse_data_set(body, domain, set_id, export_time, exporter_router,
                          out)) {
        ++stats_.malformed;
        return false;
      }
    }
    // Other set ids (options templates etc.) are skipped.
    at += set_len;
  }
  if (at != bytes.size()) {
    ++stats_.malformed;
    return false;
  }
  return true;
}

bool Parser::parse_template_set(std::span<const std::uint8_t> body,
                                std::uint32_t domain) {
  std::size_t at = 0;
  while (at + 4 <= body.size()) {
    Template tmpl;
    tmpl.template_id = get16(body, at);
    const std::uint16_t field_count = get16(body, at + 2);
    at += 4;
    if (tmpl.template_id < kMinDataSetId) return false;
    if (at + 4u * field_count > body.size()) return false;
    bool supported = true;
    for (std::uint16_t f = 0; f < field_count; ++f) {
      FieldSpec spec{get16(body, at), get16(body, at + 2)};
      at += 4;
      if (spec.id & 0x8000u) {
        // Enterprise-specific element: 4 more bytes of enterprise number;
        // not supported — skip the template entirely.
        if (at + 4 > body.size()) return false;
        at += 4;
        supported = false;
        continue;
      }
      if (spec.length == 0xFFFF || spec.length == 0) supported = false;
      tmpl.fields.push_back(spec);
    }
    if (!supported) {
      ++stats_.unsupported_fields;
      continue;
    }
    templates_[template_key(domain, tmpl.template_id)] = std::move(tmpl);
    ++stats_.templates_learned;
  }
  return true;
}

bool Parser::parse_data_set(std::span<const std::uint8_t> body,
                            std::uint32_t domain, std::uint16_t set_id,
                            std::uint32_t export_time,
                            topology::RouterId exporter_router,
                            std::vector<FlowRecord>& out) {
  const Template* tmpl = find_template(domain, set_id);
  if (!tmpl) {
    // RFC-conformant: data for unknown templates must be tolerated (the
    // template announcement may simply not have arrived yet over UDP).
    ++stats_.data_without_template;
    return true;
  }
  const std::size_t stride = tmpl->record_bytes();
  if (stride == 0) return false;
  std::size_t at = 0;
  // Trailing padding shorter than one record is allowed.
  while (at + stride <= body.size()) {
    FlowRecord flow;
    flow.ts = export_time;
    flow.ingress.router = exporter_router;
    for (const auto& field : tmpl->fields) {
      const auto value = body.subspan(at, field.length);
      switch (field.id) {
        case kIeSourceIPv4Address:
          if (field.length == 4) flow.src_ip = net::IpAddress::v4(get32(value, 0));
          break;
        case kIeDestinationIPv4Address:
          if (field.length == 4) flow.dst_ip = net::IpAddress::v4(get32(value, 0));
          break;
        case kIeSourceIPv6Address:
          if (field.length == 16) {
            flow.src_ip = net::IpAddress::v6(get64(value, 0), get64(value, 8));
          }
          break;
        case kIeDestinationIPv6Address:
          if (field.length == 16) {
            flow.dst_ip = net::IpAddress::v6(get64(value, 0), get64(value, 8));
          }
          break;
        case kIeIngressInterface:
          if (field.length == 4) {
            flow.ingress.iface =
                static_cast<topology::InterfaceIndex>(get32(value, 0));
          }
          break;
        case kIeOctetDeltaCount:
          if (field.length == 8) flow.bytes = get64(value, 0);
          break;
        case kIePacketDeltaCount:
          if (field.length == 8) {
            flow.packets = static_cast<std::uint32_t>(get64(value, 0));
          }
          break;
        case kIeFlowStartSeconds:
          if (field.length == 4) {
            flow.ts = static_cast<util::Timestamp>(get32(value, 0));
          }
          break;
        default:
          break;  // unknown element: skipped by length
      }
      at += field.length;
    }
    out.push_back(flow);
    ++stats_.records;
  }
  return true;
}

bool Parser::parse_batch(std::span<const std::uint8_t> bytes,
                         topology::RouterId exporter_router, FlowBatch& out) {
  ++stats_.messages;
  if (bytes.size() < kMessageHeaderBytes || get16(bytes, 0) != kVersion) {
    ++stats_.malformed;
    return false;
  }
  const std::uint16_t length = get16(bytes, 2);
  if (length != bytes.size()) {
    ++stats_.malformed;
    return false;
  }
  const std::uint32_t export_time = get32(bytes, 4);
  const std::uint32_t domain = get32(bytes, 12);

  // Grow the batch once for every data set whose template is already
  // known: a message usually carries an IPv4 and an IPv6 set, and sizing
  // them one at a time would make the second set's reserve_more double
  // the first set's capacity. This is only a size hint; the walk below
  // validates the message.
  std::size_t known_records = 0;
  for (std::size_t at = kMessageHeaderBytes; at + 4 <= bytes.size();) {
    const std::uint16_t set_id = get16(bytes, at);
    const std::uint16_t set_len = get16(bytes, at + 2);
    if (set_len < 4 || at + set_len > bytes.size()) break;
    if (set_id >= kMinDataSetId) {
      if (const Template* tmpl = find_template(domain, set_id)) {
        const std::size_t stride = tmpl->record_bytes();
        if (stride > 0) known_records += (set_len - 4u) / stride;
      }
    }
    at += set_len;
  }
  out.reserve_more(known_records);

  std::size_t at = kMessageHeaderBytes;
  while (at + 4 <= bytes.size()) {
    const std::uint16_t set_id = get16(bytes, at);
    const std::uint16_t set_len = get16(bytes, at + 2);
    if (set_len < 4 || at + set_len > bytes.size()) {
      ++stats_.malformed;
      return false;
    }
    const auto body = bytes.subspan(at + 4, set_len - 4);
    if (set_id == kTemplateSetId) {
      if (!parse_template_set(body, domain)) {
        ++stats_.malformed;
        return false;
      }
    } else if (set_id >= kMinDataSetId) {
      if (!parse_data_set_batch(body, domain, set_id, export_time,
                                exporter_router, out)) {
        ++stats_.malformed;
        return false;
      }
    }
    at += set_len;
  }
  if (at != bytes.size()) {
    ++stats_.malformed;
    return false;
  }
  return true;
}

bool Parser::parse_data_set_batch(std::span<const std::uint8_t> body,
                                  std::uint32_t domain, std::uint16_t set_id,
                                  std::uint32_t export_time,
                                  topology::RouterId exporter_router,
                                  FlowBatch& out) {
  const Template* tmpl = find_template(domain, set_id);
  if (!tmpl) {
    ++stats_.data_without_template;
    return true;
  }
  // Fixed-layout fast path: the exporter-side built-in templates have a
  // known field order, so a matching learned template decodes with three
  // to six word loads per record instead of the per-field switch.
  static const std::vector<FieldSpec> kV4Fields = v4_flow_template().fields;
  static const std::vector<FieldSpec> kV6Fields = v6_flow_template().fields;
  const bool swar = simd::swar_enabled() && !force_scalar_;
  if (swar && tmpl->fields == kV4Fields) {
    // src(4) dst(4) iface(4) octets(8) packets(8) start(4); stride 32.
    constexpr std::size_t kStride = 32;
    const std::size_t n = body.size() / kStride;
    out.reserve_more(n);
    const std::uint8_t* p = body.data();
    for (std::size_t i = 0; i < n; ++i, p += kStride) {
      const std::uint64_t w0 = load64be(p);  // src | dst
      out.push_back(static_cast<util::Timestamp>(load32be(p + 28)),
                    net::IpAddress::v4(static_cast<std::uint32_t>(w0 >> 32)),
                    net::IpAddress::v4(static_cast<std::uint32_t>(w0)),
                    static_cast<std::uint32_t>(load64be(p + 20)),
                    load64be(p + 12),
                    topology::LinkId{
                        exporter_router,
                        static_cast<topology::InterfaceIndex>(load32be(p + 8))});
    }
    stats_.records += n;
    return true;
  }
  if (swar && tmpl->fields == kV6Fields) {
    // src(16) dst(16) iface(4) octets(8) packets(8) start(4); stride 56.
    constexpr std::size_t kStride = 56;
    const std::size_t n = body.size() / kStride;
    out.reserve_more(n);
    const std::uint8_t* p = body.data();
    for (std::size_t i = 0; i < n; ++i, p += kStride) {
      out.push_back(
          static_cast<util::Timestamp>(load32be(p + 52)),
          net::IpAddress::v6(load64be(p), load64be(p + 8)),
          net::IpAddress::v6(load64be(p + 16), load64be(p + 24)),
          static_cast<std::uint32_t>(load64be(p + 44)), load64be(p + 36),
          topology::LinkId{
              exporter_router,
              static_cast<topology::InterfaceIndex>(load32be(p + 32))});
    }
    stats_.records += n;
    return true;
  }
  // Generic template: reuse the reference per-field walk, then append the
  // rows column-wise. Stats are updated inside parse_data_set.
  scratch_.clear();
  if (!parse_data_set(body, domain, set_id, export_time, exporter_router,
                      scratch_)) {
    return false;
  }
  append_records(out, scratch_);
  return true;
}

}  // namespace ipd::netflow::ipfix
