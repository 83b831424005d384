// Decode differential fuzz: the SWAR fixed-layout fast paths against the
// scalar reference decoders, over valid, truncated, and bit-flipped
// datagrams. The property is full equivalence — both paths must agree on
// accept/reject for every input and, when they accept, must append
// byte-identical SoA rows. Runs under the sanitizer jobs in CI, so any
// out-of-bounds read in the word-at-a-time paths fails there even when the
// outputs happen to match.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "netflow/flow_batch.hpp"
#include "netflow/ipfix.hpp"
#include "netflow/simd.hpp"
#include "netflow/v5.hpp"
#include "util/rng.hpp"

namespace ipd::netflow {
namespace {

v5::Packet random_v5_packet(util::Rng& rng) {
  v5::Packet p;
  p.header.sys_uptime_ms = static_cast<std::uint32_t>(rng());
  p.header.unix_secs = static_cast<std::uint32_t>(rng());
  p.header.unix_nsecs = static_cast<std::uint32_t>(rng());
  p.header.flow_sequence = static_cast<std::uint32_t>(rng());
  p.header.engine_type = static_cast<std::uint8_t>(rng());
  p.header.engine_id = static_cast<std::uint8_t>(rng());
  p.header.sampling = static_cast<std::uint16_t>(rng());
  const std::size_t n = static_cast<std::size_t>(
      rng.range(1, static_cast<std::int64_t>(v5::kMaxRecordsPerPacket)));
  for (std::size_t i = 0; i < n; ++i) {
    v5::Record r;
    r.src_addr = static_cast<std::uint32_t>(rng());
    r.dst_addr = static_cast<std::uint32_t>(rng());
    r.next_hop = static_cast<std::uint32_t>(rng());
    r.input_snmp = static_cast<std::uint16_t>(rng());
    r.output_snmp = static_cast<std::uint16_t>(rng());
    r.packets = static_cast<std::uint32_t>(rng());
    r.octets = static_cast<std::uint32_t>(rng());
    r.first_ms = static_cast<std::uint32_t>(rng());
    r.last_ms = static_cast<std::uint32_t>(rng());
    r.src_port = static_cast<std::uint16_t>(rng());
    r.dst_port = static_cast<std::uint16_t>(rng());
    r.tcp_flags = static_cast<std::uint8_t>(rng());
    r.protocol = static_cast<std::uint8_t>(rng());
    r.tos = static_cast<std::uint8_t>(rng());
    r.src_as = static_cast<std::uint16_t>(rng());
    r.dst_as = static_cast<std::uint16_t>(rng());
    r.src_mask = static_cast<std::uint8_t>(rng());
    r.dst_mask = static_cast<std::uint8_t>(rng());
    p.records.push_back(r);
  }
  return p;
}

/// Both v5 paths on the same bytes: same verdict, same rows. Start both
/// batches with a sentinel row to prove rejection leaves `out` untouched.
void check_v5_equivalent(std::span<const std::uint8_t> bytes) {
  FlowBatch swar, scalar;
  swar.push_back(7, net::IpAddress::v4(1), net::IpAddress::v4(2), 3, 4,
                 topology::LinkId{1, 1});
  scalar = swar;
  const auto a = v5::decode_batch_swar(bytes, /*exporter_router=*/12, swar);
  const auto b = v5::decode_batch_scalar(bytes, /*exporter_router=*/12,
                                         scalar);
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a.has_value()) ASSERT_EQ(*a, *b);
  ASSERT_TRUE(swar == scalar);
}

TEST(DecodeDifferential, V5ValidPackets) {
  util::Rng rng(0xD1FF1);
  for (int iter = 0; iter < 400; ++iter) {
    const auto bytes = v5::encode(random_v5_packet(rng));
    FlowBatch out;
    ASSERT_TRUE(v5::decode_batch_swar(bytes, 12, out).has_value());
    ASSERT_EQ(out.size(), (bytes.size() - v5::kHeaderBytes) / v5::kRecordBytes);
    check_v5_equivalent(bytes);
  }
}

TEST(DecodeDifferential, V5Truncations) {
  util::Rng rng(0xD1FF2);
  const auto bytes = v5::encode(random_v5_packet(rng));
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    check_v5_equivalent(std::span(bytes.data(), len));
  }
}

TEST(DecodeDifferential, V5BitFlips) {
  util::Rng rng(0xD1FF3);
  for (int iter = 0; iter < 400; ++iter) {
    auto bytes = v5::encode(random_v5_packet(rng));
    const int flips = static_cast<int>(rng.range(1, 8));
    for (int i = 0; i < flips; ++i) {
      const auto pos = static_cast<std::size_t>(
          rng.range(0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.range(0, 7));
    }
    check_v5_equivalent(bytes);
  }
}

TEST(DecodeDifferential, V5Garbage) {
  util::Rng rng(0xD1FF4);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(
        rng.range(0, 2048)));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    check_v5_equivalent(bytes);
  }
}

std::vector<FlowRecord> random_flows(util::Rng& rng, std::size_t n) {
  std::vector<FlowRecord> flows(n);
  for (auto& f : flows) {
    f.ts = static_cast<util::Timestamp>(rng() & 0xFFFFFFFFu);
    if (rng.chance(0.5)) {
      f.src_ip = net::IpAddress::v4(static_cast<std::uint32_t>(rng()));
      f.dst_ip = net::IpAddress::v4(static_cast<std::uint32_t>(rng()));
    } else {
      f.src_ip = net::IpAddress::v6(rng(), rng());
      f.dst_ip = net::IpAddress::v6(rng(), rng());
    }
    f.ingress = topology::LinkId{static_cast<topology::RouterId>(rng() & 0xFF),
                                 static_cast<std::uint16_t>(rng() & 0xFFF)};
    f.packets = (rng() & 0xFFFF) + 1;
    f.bytes = (rng() & 0xFFFFFF) + 1;
  }
  return flows;
}

/// Same message through a SWAR-dispatching parser and a forced-scalar
/// parser whose template caches were warmed identically: same verdict,
/// same rows, same stats counters.
void check_ipfix_equivalent(ipfix::Parser& fast, ipfix::Parser& slow,
                            std::span<const std::uint8_t> bytes) {
  FlowBatch a, b;
  const bool ok_fast = fast.parse_batch(bytes, /*exporter_router=*/9, a);
  const bool ok_slow = slow.parse_batch(bytes, /*exporter_router=*/9, b);
  ASSERT_EQ(ok_fast, ok_slow);
  ASSERT_TRUE(a == b);
  ASSERT_EQ(fast.stats().records, slow.stats().records);
  ASSERT_EQ(fast.stats().malformed, slow.stats().malformed);
  ASSERT_EQ(fast.stats().templates_learned, slow.stats().templates_learned);
  ASSERT_EQ(fast.stats().data_without_template,
            slow.stats().data_without_template);
}

TEST(DecodeDifferential, IpfixValidMessages) {
  util::Rng rng(0x1BF1);
  ipfix::Exporter exporter(/*observation_domain=*/7, /*template_refresh=*/4);
  ipfix::Parser fast, slow;
  slow.set_force_scalar(true);
  for (int iter = 0; iter < 200; ++iter) {
    const auto flows =
        random_flows(rng, static_cast<std::size_t>(rng.range(1, 120)));
    for (const auto& msg : exporter.export_flows(
             flows, static_cast<std::uint32_t>(1700000000 + iter))) {
      check_ipfix_equivalent(fast, slow, msg);
    }
  }
  EXPECT_GT(fast.stats().records, 0u);
}

TEST(DecodeDifferential, IpfixTruncations) {
  util::Rng rng(0x1BF2);
  ipfix::Exporter exporter(7);
  const auto flows = random_flows(rng, 40);
  const auto msgs = exporter.export_flows(flows, 1700000000);
  ASSERT_FALSE(msgs.empty());
  for (const auto& msg : msgs) {
    for (std::size_t len = 0; len <= msg.size(); ++len) {
      // Fresh parsers per prefix: a truncated template set must not leave
      // the two caches in different states for the next input.
      ipfix::Parser fast, slow;
      slow.set_force_scalar(true);
      check_ipfix_equivalent(fast, slow, std::span(msg.data(), len));
    }
  }
}

TEST(DecodeDifferential, IpfixBitFlips) {
  util::Rng rng(0x1BF3);
  for (int iter = 0; iter < 200; ++iter) {
    ipfix::Exporter exporter(7, /*template_refresh=*/1);
    const auto flows =
        random_flows(rng, static_cast<std::size_t>(rng.range(1, 60)));
    auto msgs = exporter.export_flows(flows, 1700000000);
    ipfix::Parser fast, slow;
    slow.set_force_scalar(true);
    for (auto& msg : msgs) {
      const int flips = static_cast<int>(rng.range(1, 6));
      for (int i = 0; i < flips; ++i) {
        const auto pos = static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(msg.size()) - 1));
        msg[pos] ^= static_cast<std::uint8_t>(1u << rng.range(0, 7));
      }
      check_ipfix_equivalent(fast, slow, msg);
    }
  }
}

TEST(DecodeDifferential, IpfixGarbage) {
  util::Rng rng(0x1BF4);
  ipfix::Parser fast, slow;
  slow.set_force_scalar(true);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(rng.range(0, 1500)));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    check_ipfix_equivalent(fast, slow, bytes);
  }
}

TEST(DecodeDifferential, DispatchRespectsEnv) {
  // decode_batch() must behave identically to whichever fixed path the
  // process simd level selects (IPD_NO_SIMD pins it to Scalar in the CI
  // no-simd job; either way the differential above proves them equal).
  util::Rng rng(0xD1FF5);
  const auto bytes = v5::encode(random_v5_packet(rng));
  FlowBatch dispatched, fixed;
  ASSERT_TRUE(v5::decode_batch(bytes, 12, dispatched).has_value());
  if (simd::active_level() == simd::Level::Swar) {
    ASSERT_TRUE(v5::decode_batch_swar(bytes, 12, fixed).has_value());
  } else {
    ASSERT_TRUE(v5::decode_batch_scalar(bytes, 12, fixed).has_value());
  }
  ASSERT_TRUE(dispatched == fixed);
}

// Accumulating many datagrams into one batch must grow it geometrically:
// every decoder's append and append_records change the batch's capacity
// O(log records) times, not once per datagram.
constexpr std::size_t kGrowthDatagrams = 10000;

/// Calls `append(i, batch)` for i in [0, kGrowthDatagrams) on one batch and
/// checks how often any column's capacity changed.
template <typename Append>
void expect_logarithmic_growth(Append append) {
  FlowBatch batch;
  std::size_t changes = 0;
  std::uint64_t capacity_bytes = batch.memory_bytes();
  for (std::size_t i = 0; i < kGrowthDatagrams; ++i) {
    append(i, batch);
    if (::testing::Test::HasFatalFailure()) return;
    if (batch.memory_bytes() != capacity_bytes) {
      ++changes;
      capacity_bytes = batch.memory_bytes();
    }
  }
  ASSERT_GE(batch.size(), kGrowthDatagrams);
  EXPECT_LE(changes, 2 * static_cast<std::size_t>(std::bit_width(batch.size())))
      << batch.size() << " records";
}

TEST(FlowBatchGrowth, V5DatagramsGrowGeometrically) {
  util::Rng rng(0x6207);
  std::vector<std::vector<std::uint8_t>> packets;
  for (int i = 0; i < 64; ++i) packets.push_back(v5::encode(random_v5_packet(rng)));
  expect_logarithmic_growth([&](std::size_t i, FlowBatch& batch) {
    ASSERT_TRUE(v5::decode_batch_swar(packets[i % packets.size()], 12, batch));
  });
  expect_logarithmic_growth([&](std::size_t i, FlowBatch& batch) {
    ASSERT_TRUE(v5::decode_batch_scalar(packets[i % packets.size()], 12, batch));
  });
}

/// IPFIX messages of one family, each carrying 1-30 records, through a
/// SWAR-dispatching and a forced-scalar parser.
void expect_ipfix_growth(bool v6) {
  util::Rng rng(v6 ? 0x6206 : 0x6204);
  for (const bool force_scalar : {false, true}) {
    ipfix::Exporter exporter(/*observation_domain=*/7);
    ipfix::Parser parser;
    parser.set_force_scalar(force_scalar);
    expect_logarithmic_growth([&](std::size_t i, FlowBatch& batch) {
      auto flows = random_flows(rng, static_cast<std::size_t>(rng.range(1, 30)));
      for (auto& f : flows) {
        if (f.src_ip.is_v4() == v6) {
          f.src_ip = v6 ? net::IpAddress::v6(rng(), rng())
                        : net::IpAddress::v4(static_cast<std::uint32_t>(rng()));
          f.dst_ip = f.src_ip;
        }
      }
      for (const auto& msg : exporter.export_flows(
               flows, static_cast<std::uint32_t>(1700000000 + i))) {
        ASSERT_TRUE(parser.parse_batch(msg, /*exporter_router=*/9, batch));
      }
    });
  }
}

TEST(FlowBatchGrowth, IpfixV4MessagesGrowGeometrically) { expect_ipfix_growth(false); }

TEST(FlowBatchGrowth, IpfixV6MessagesGrowGeometrically) { expect_ipfix_growth(true); }

TEST(FlowBatchGrowth, MixedIpfixMessageIsSizedExactly) {
  // One message carrying an IPv4 and an IPv6 data set sizes a fresh batch
  // once, for both sets: geometric growth must not double the first set's
  // capacity when the second arrives.
  util::Rng rng(0x6207);
  ipfix::Exporter exporter(/*observation_domain=*/7);
  ipfix::Parser parser;
  // The first export carries the templates; the parser learns them here.
  for (const auto& msg : exporter.export_flows(random_flows(rng, 4), 1700000000)) {
    FlowBatch warm;
    ASSERT_TRUE(parser.parse_batch(msg, 9, warm));
  }
  auto flows = random_flows(rng, 24);
  flows[0].src_ip = flows[0].dst_ip = net::IpAddress::v4(1);
  flows[1].src_ip = flows[1].dst_ip = net::IpAddress::v6(1, 1);
  const auto msgs = exporter.export_flows(flows, 1700000001);
  ASSERT_EQ(msgs.size(), 1u);
  FlowBatch batch;
  ASSERT_TRUE(parser.parse_batch(msgs[0], 9, batch));
  ASSERT_EQ(batch.size(), flows.size());
  EXPECT_EQ(batch.ts.capacity(), batch.size());
  EXPECT_EQ(batch.src_ip.capacity(), batch.size());
}

TEST(FlowBatchGrowth, AppendRecordsGrowsGeometrically) {
  util::Rng rng(0x6205);
  const auto flows = random_flows(rng, 64);
  expect_logarithmic_growth([&](std::size_t i, FlowBatch& batch) {
    append_records(batch, std::span(flows).first(1 + i % 30));
  });
}

}  // namespace
}  // namespace ipd::netflow
