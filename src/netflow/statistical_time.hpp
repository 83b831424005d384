// "Statistical time" pre-processing (paper §3.1).
//
// Router clocks drift, so the pipeline does not trust raw export
// timestamps. Instead it segments traffic into uniform time buckets and
// infers event ordering from the bulk of the data: buckets that do not
// meet an activity threshold are discarded, and records falling outside
// the currently plausible time range are dropped. "This method might
// exclude some data but ensures consistency despite clock drifts."
//
// The implementation is streaming: records are staged per bucket in
// columnar FlowBatches; once the stream's watermark has moved
// `settle_buckets` past a bucket, that bucket is either emitted whole (its
// records in arrival order, with their raw export timestamps) or
// discarded. A record whose bucket is already below that bound when it
// arrives (late, but inside the skew window) forms a bucket of its own
// that is sealed at once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "netflow/flow_batch.hpp"
#include "netflow/flow_record.hpp"
#include "util/time.hpp"

namespace ipd::netflow {

struct StatisticalTimeConfig {
  util::Duration bucket_len = 60;     // uniform bucket size (= IPD's t)
  std::uint64_t activity_threshold = 10;  // min records for a bucket to count
  util::Duration max_skew = 300;      // drop records further than this from
                                      // the current stream watermark
  int settle_buckets = 2;             // buckets to wait before sealing one
};

struct StatisticalTimeStats {
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t dropped_skew = 0;      // outside plausible window
  std::uint64_t dropped_inactive = 0;  // in a below-threshold bucket
  std::uint64_t buckets_emitted = 0;
  std::uint64_t buckets_discarded = 0;
};

/// Streaming pre-processor. Feed records (roughly ordered, drift allowed),
/// receive cleaned records via the sink; call flush() at end of stream.
class StatisticalTime {
 public:
  /// Receives the records of an emitted bucket one at a time.
  using Sink = std::function<void(const FlowRecord&)>;
  /// Receives an emitted bucket whole. The batch is only valid during the
  /// call: its storage is reused for later buckets.
  using BatchSink = std::function<void(const FlowBatch&)>;

  StatisticalTime(StatisticalTimeConfig config, BatchSink sink);
  StatisticalTime(StatisticalTimeConfig config, Sink sink);
  /// A null sink is rejected like any empty one; this overload only keeps
  /// `nullptr` from being ambiguous between the two sink types.
  StatisticalTime(StatisticalTimeConfig config, std::nullptr_t);

  /// Offer a batch's rows in order; the same as offering each row as a
  /// record, emitting at the same rows. May synchronously emit older,
  /// now-settled buckets.
  void offer(const FlowBatch& batch);

  /// Offer one record. May synchronously emit older, now-settled buckets.
  void offer(const FlowRecord& record);

  /// Seal and emit/discard all pending buckets.
  void flush();

  const StatisticalTimeStats& stats() const noexcept { return stats_; }

  /// Current watermark: the largest plausible time seen so far.
  util::Timestamp watermark() const noexcept { return watermark_; }

 private:
  struct Bucket {
    std::int64_t index = 0;
    FlowBatch rows;  // raw timestamps, arrival order
  };

  template <typename AppendRows>
  void offer_rows(std::span<const util::Timestamp> ts, AppendRows&& append);
  FlowBatch& staging(std::int64_t bucket);
  void seal_up_to(std::int64_t bucket_exclusive);

  StatisticalTimeConfig config_;
  BatchSink sink_;
  StatisticalTimeStats stats_;
  // Pending buckets in ascending index order. All of them are at or above
  // seal_bound_ between offers, and at most settle_buckets + 1 of them are
  // open, so lookups scan from the back.
  std::vector<Bucket> pending_;
  std::vector<FlowBatch> spare_;  // sealed buckets' cleared storage
  util::Timestamp watermark_ = 0;
  bool have_watermark_ = false;
  std::int64_t seal_bound_ = 0;  // valid once have_watermark_
};

}  // namespace ipd::netflow
