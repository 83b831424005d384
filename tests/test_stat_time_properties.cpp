// Property sweeps for the statistical-time pre-processing: across bucket
// lengths, thresholds and drift severities, the invariants must hold:
// conservation (in = out + dropped), bucket-ordered emission, and no
// emission from below-threshold buckets. A differential then holds the
// columnar implementation to a record-at-a-time transcription.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "netflow/clock_drift.hpp"
#include "netflow/statistical_time.hpp"
#include "stat_time_reference.hpp"
#include "util/rng.hpp"

namespace ipd::netflow {
namespace {

struct SweepParam {
  util::Duration bucket_len;
  std::uint64_t activity_threshold;
  util::Duration max_skew;
  double broken_clock_prob;
};

class StatTimeSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(StatTimeSweep, InvariantsHoldUnderDriftedTraffic) {
  const auto param = GetParam();
  StatisticalTimeConfig config;
  config.bucket_len = param.bucket_len;
  config.activity_threshold = param.activity_threshold;
  config.max_skew = param.max_skew;

  std::vector<FlowRecord> emitted;
  StatisticalTime st(config,
                     [&](const FlowRecord& r) { emitted.push_back(r); });

  ClockDriftConfig drift_config;
  drift_config.broken_clock_prob = param.broken_clock_prob;
  drift_config.offset_stddev_s = 1.5;
  drift_config.jitter_stddev_s = 0.5;
  ClockDriftModel drift(drift_config, 17);

  util::Rng rng(99);
  const util::Timestamp t0 = 100000;
  for (int step = 0; step < 4000; ++step) {
    FlowRecord r;
    const util::Timestamp true_ts =
        t0 + step / 4;  // ~4 records per true second
    r.ts = drift.apply(static_cast<topology::RouterId>(rng.below(20)), true_ts);
    r.src_ip = net::IpAddress::v4(static_cast<std::uint32_t>(rng()));
    r.ingress = topology::LinkId{1, 0};
    st.offer(r);
  }
  st.flush();

  const auto& stats = st.stats();
  // Conservation.
  EXPECT_EQ(stats.records_in, 4000u);
  EXPECT_EQ(stats.records_out + stats.dropped_skew + stats.dropped_inactive,
            stats.records_in);
  EXPECT_EQ(stats.records_out, emitted.size());

  // Emission is bucket-ordered (non-decreasing bucket index).
  std::int64_t last_bucket = -1;
  for (const auto& r : emitted) {
    const auto bucket = util::bucket_index(r.ts, config.bucket_len);
    EXPECT_GE(bucket, last_bucket);
    last_bucket = std::max(last_bucket, bucket);
  }

  // Every emitted bucket met the activity threshold.
  std::map<std::int64_t, std::uint64_t> per_bucket;
  for (const auto& r : emitted) {
    ++per_bucket[util::bucket_index(r.ts, config.bucket_len)];
  }
  for (const auto& [bucket, n] : per_bucket) {
    (void)bucket;
    EXPECT_GE(n, config.activity_threshold);
  }

  // With healthy clocks almost everything survives; with broken clocks the
  // skew filter must have removed something.
  if (param.broken_clock_prob == 0.0) {
    EXPECT_GT(stats.records_out, stats.records_in * 9 / 10);
  } else {
    EXPECT_GT(stats.dropped_skew, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StatTimeSweep,
    ::testing::Values(SweepParam{60, 1, 300, 0.0},
                      SweepParam{60, 10, 300, 0.0},
                      SweepParam{60, 10, 120, 0.15},
                      SweepParam{30, 5, 150, 0.1},
                      SweepParam{300, 50, 600, 0.0},
                      SweepParam{10, 2, 60, 0.2}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "bucket" + std::to_string(info.param.bucket_len) + "_thr" +
             std::to_string(info.param.activity_threshold) + "_skew" +
             std::to_string(info.param.max_skew) + "_broken" +
             std::to_string(static_cast<int>(info.param.broken_clock_prob * 100));
    });

// ---------------------------------------------------------------------------
// Columnar vs record-at-a-time. offer(FlowBatch), with the stream cut into
// batches at random points, and offer(FlowRecord) must emit exactly what
// the record-wise transcription emits: the same rows in the same order,
// grouped into the same buckets, each emitted by the same input row, with
// all six stats equal.

void expect_same_stats(const StatisticalTimeStats& got,
                       const StatisticalTimeStats& want) {
  EXPECT_EQ(got.records_in, want.records_in);
  EXPECT_EQ(got.records_out, want.records_out);
  EXPECT_EQ(got.dropped_skew, want.dropped_skew);
  EXPECT_EQ(got.dropped_inactive, want.dropped_inactive);
  EXPECT_EQ(got.buckets_emitted, want.buckets_emitted);
  EXPECT_EQ(got.buckets_discarded, want.buckets_discarded);
}

// A stream around a moving "now": in-order rows with jitter, late rows
// (inside and beyond the skew window, many of them below the seal bound)
// and rows from broken clocks hours off. Every row is unique.
std::vector<FlowRecord> random_stream(util::Rng& rng, std::size_t n,
                                      const StatisticalTimeConfig& config) {
  const util::Duration len = config.bucket_len;
  const double p_late = rng.uniform(0.0, 0.25);
  const double p_broken = rng.uniform(0.0, 0.1);
  util::Timestamp now = 1'000'000 + rng.range(0, 1000);
  std::vector<FlowRecord> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    now += rng.range(0, len / 4 + 1);
    FlowRecord& r = out[i];
    if (rng.chance(p_broken)) {
      const util::Duration off = 3600 + rng.range(0, 86400);
      r.ts = rng.chance(0.5) ? now + off : now - off;
    } else if (rng.chance(p_late)) {
      r.ts = now - rng.range(0, config.max_skew + 4 * len);
    } else {
      r.ts = now + rng.range(-(len / 3), len / 3);
    }
    r.src_ip = net::IpAddress::v4(0x0A000000u + static_cast<std::uint32_t>(i));
    r.dst_ip = net::IpAddress::v4(static_cast<std::uint32_t>(rng()));
    r.packets = static_cast<std::uint32_t>(rng.range(1, 9));
    r.bytes = rng.below(1 << 20);
    r.ingress = topology::LinkId{static_cast<topology::RouterId>(rng.below(4)),
                                 static_cast<topology::InterfaceIndex>(
                                     rng.below(3))};
  }
  return out;
}

TEST(StatTimeDifferential, ColumnarMatchesRecordWise) {
  const util::Duration lens[] = {1, 5, 60, 300};
  const util::Duration skews[] = {0, 45, 300, 1200};
  util::Rng rng(2024);
  for (int trace = 0; trace < 400; ++trace) {
    StatisticalTimeConfig config;
    config.bucket_len = lens[rng.below(4)];
    config.activity_threshold = rng.below(12);
    config.max_skew = skews[rng.below(4)];
    config.settle_buckets = static_cast<int>(rng.below(4));
    const std::vector<FlowRecord> stream =
        random_stream(rng, 1 + rng.below(600), config);
    SCOPED_TRACE("trace " + std::to_string(trace) + ": bucket_len " +
                 std::to_string(config.bucket_len) + ", threshold " +
                 std::to_string(config.activity_threshold) + ", max_skew " +
                 std::to_string(config.max_skew) + ", settle " +
                 std::to_string(config.settle_buckets) + ", " +
                 std::to_string(stream.size()) + " rows");

    // The reference, with the emitted-row count after each input row.
    std::vector<FlowRecord> want_rows;
    std::vector<std::size_t> want_buckets;
    reference::RecordWiseStatTime ref(
        config, [&](const std::vector<FlowRecord>& bucket) {
          want_rows.insert(want_rows.end(), bucket.begin(), bucket.end());
          want_buckets.push_back(bucket.size());
        });
    std::vector<std::size_t> want_after(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
      ref.offer(stream[i]);
      want_after[i] = want_rows.size();
    }
    const StatisticalTimeStats want_unflushed = ref.stats();
    ref.flush();

    // Batches cut at random points.
    std::vector<FlowRecord> got_rows;
    std::vector<std::size_t> got_buckets;
    StatisticalTime columnar(config, [&](const FlowBatch& bucket) {
      for (std::size_t k = 0; k < bucket.size(); ++k) {
        got_rows.push_back(bucket.record(k));
      }
      got_buckets.push_back(bucket.size());
    });
    FlowBatch batch;
    for (std::size_t begin = 0; begin < stream.size();) {
      const std::size_t end =
          rng.chance(0.05) ? stream.size()
                           : std::min(stream.size(), begin + 1 + rng.below(64));
      batch.clear();
      append_records(batch, std::span(stream).subspan(begin, end - begin));
      columnar.offer(batch);
      ASSERT_EQ(got_rows.size(), want_after[end - 1])
          << "batch [" << begin << ", " << end << ")";
      begin = end;
    }
    expect_same_stats(columnar.stats(), want_unflushed);
    columnar.flush();
    EXPECT_EQ(got_rows, want_rows);
    EXPECT_EQ(got_buckets, want_buckets);
    expect_same_stats(columnar.stats(), ref.stats());

    // The record adapter runs the same rules.
    std::vector<FlowRecord> adapter_rows;
    StatisticalTime per_record(config, [&](const FlowRecord& r) {
      adapter_rows.push_back(r);
    });
    for (std::size_t i = 0; i < stream.size(); ++i) {
      per_record.offer(stream[i]);
      ASSERT_EQ(adapter_rows.size(), want_after[i]) << "row " << i;
    }
    per_record.flush();
    EXPECT_EQ(adapter_rows, want_rows);
    expect_same_stats(per_record.stats(), ref.stats());
  }
}

}  // namespace
}  // namespace ipd::netflow
