// Record-at-a-time statistical time (paper §3.1), written out as plainly as
// possible: a map from bucket index to that bucket's records, sealed after
// every record. StatisticalTime stages buckets column-wise and seals in
// runs; the differential tests hold it, and the collector built on it, to
// this transcription row for row.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "netflow/flow_record.hpp"
#include "netflow/statistical_time.hpp"
#include "util/time.hpp"

namespace ipd::netflow::reference {

class RecordWiseStatTime {
 public:
  /// Called once per emitted bucket with its records in arrival order.
  using BucketSink = std::function<void(const std::vector<FlowRecord>&)>;

  RecordWiseStatTime(StatisticalTimeConfig config, BucketSink sink)
      : config_(config), sink_(std::move(sink)) {}

  void offer(const FlowRecord& record) {
    ++stats_.records_in;
    if (!have_watermark_) {
      watermark_ = record.ts;
      have_watermark_ = true;
    }
    if (record.ts > watermark_) {
      if (record.ts - watermark_ > config_.max_skew) {
        ++stats_.dropped_skew;
        return;
      }
      watermark_ = record.ts;
    } else if (watermark_ - record.ts > config_.max_skew) {
      ++stats_.dropped_skew;
      return;
    }
    pending_[util::bucket_index(record.ts, config_.bucket_len)].push_back(
        record);
    seal_up_to(util::bucket_index(watermark_, config_.bucket_len) -
               config_.settle_buckets);
  }

  void flush() {
    seal_up_to(pending_.empty() ? 0 : pending_.rbegin()->first + 1);
  }

  const StatisticalTimeStats& stats() const noexcept { return stats_; }

 private:
  void seal_up_to(std::int64_t bucket_exclusive) {
    while (!pending_.empty() && pending_.begin()->first < bucket_exclusive) {
      const std::vector<FlowRecord> records =
          std::move(pending_.begin()->second);
      pending_.erase(pending_.begin());
      if (records.size() >= config_.activity_threshold) {
        ++stats_.buckets_emitted;
        stats_.records_out += records.size();
        sink_(records);
      } else {
        ++stats_.buckets_discarded;
        stats_.dropped_inactive += records.size();
      }
    }
  }

  StatisticalTimeConfig config_;
  BucketSink sink_;
  StatisticalTimeStats stats_;
  std::map<std::int64_t, std::vector<FlowRecord>> pending_;
  util::Timestamp watermark_ = 0;
  bool have_watermark_ = false;
};

}  // namespace ipd::netflow::reference
