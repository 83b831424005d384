#include "netflow/statistical_time.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <utility>

namespace ipd::netflow {

namespace {

StatisticalTime::BatchSink per_record(StatisticalTime::Sink sink) {
  if (!sink) return {};
  return [sink = std::move(sink)](const FlowBatch& rows) {
    for (std::size_t k = 0; k < rows.size(); ++k) sink(rows.record(k));
  };
}

}  // namespace

StatisticalTime::StatisticalTime(StatisticalTimeConfig config, BatchSink sink)
    : config_(config), sink_(std::move(sink)) {
  if (config_.bucket_len <= 0) {
    throw std::invalid_argument("StatisticalTime: bucket_len must be > 0");
  }
  if (!sink_) throw std::invalid_argument("StatisticalTime: null sink");
}

StatisticalTime::StatisticalTime(StatisticalTimeConfig config, Sink sink)
    : StatisticalTime(config, per_record(std::move(sink))) {}

StatisticalTime::StatisticalTime(StatisticalTimeConfig config, std::nullptr_t)
    : StatisticalTime(config, BatchSink{}) {}

void StatisticalTime::offer(const FlowBatch& batch) {
  offer_rows(batch.ts,
             [&batch](FlowBatch& dst, std::size_t begin, std::size_t end) {
               dst.append_rows(batch, begin, end);
             });
}

void StatisticalTime::offer(const FlowRecord& record) {
  offer_rows(std::span<const util::Timestamp>(&record.ts, 1),
             [&record](FlowBatch& dst, std::size_t, std::size_t) {
               dst.push_back(record);
             });
}

// The rules, once for both entry points: per row, the skew filter, then the
// watermark, then staging into the row's bucket, then sealing every bucket
// below the seal bound. Rows are staged in runs — maximal stretches that
// share a bucket with no drop or seal in between — so a run costs one
// column-wise append. A run ends at the row that triggers a seal, which is
// therefore staged (and, if its own bucket is below the bound, sealed)
// before the seal, exactly as a record-at-a-time loop would.
template <typename AppendRows>
void StatisticalTime::offer_rows(std::span<const util::Timestamp> ts,
                                 AppendRows&& append) {
  stats_.records_in += ts.size();
  std::size_t run_begin = 0;
  std::int64_t run_bucket = 0;
  const auto close_run = [&](std::size_t end) {
    if (end > run_begin) append(staging(run_bucket), run_begin, end);
    run_begin = end;
  };
  for (std::size_t k = 0; k < ts.size(); ++k) {
    const util::Timestamp t = ts[k];
    if (!have_watermark_) {
      watermark_ = t;
      have_watermark_ = true;
      seal_bound_ = util::bucket_index(t, config_.bucket_len) -
                    config_.settle_buckets;
    }
    // Records far from the plausible window are discarded outright;
    // records moderately ahead advance the watermark (the bulk of traffic
    // defines what "now" means — a single broken clock cannot drag it).
    const bool advanced = t > watermark_;
    if ((advanced ? t - watermark_ : watermark_ - t) > config_.max_skew) {
      ++stats_.dropped_skew;
      close_run(k);
      run_begin = k + 1;
      continue;
    }
    watermark_ = std::max(watermark_, t);
    const std::int64_t bucket = util::bucket_index(t, config_.bucket_len);
    if (bucket != run_bucket) {
      close_run(k);
      run_bucket = bucket;
    }
    // The watermark only grows, so the seal bound does too. When it
    // advances it is t, so the bound is t's bucket less the settle span.
    bool seal = bucket < seal_bound_;
    if (advanced && bucket - config_.settle_buckets > seal_bound_) {
      seal_bound_ = bucket - config_.settle_buckets;
      seal = true;
    }
    if (seal) {
      close_run(k + 1);
      seal_up_to(seal_bound_);
    }
  }
  close_run(ts.size());
}

FlowBatch& StatisticalTime::staging(std::int64_t bucket) {
  auto it = pending_.end();
  while (it != pending_.begin() && std::prev(it)->index > bucket) --it;
  if (it != pending_.begin() && std::prev(it)->index == bucket) {
    return std::prev(it)->rows;
  }
  Bucket fresh{bucket, {}};
  if (!spare_.empty()) {
    fresh.rows = std::move(spare_.back());
    spare_.pop_back();
  }
  return pending_.insert(it, std::move(fresh))->rows;
}

void StatisticalTime::flush() {
  if (!pending_.empty()) seal_up_to(pending_.back().index + 1);
}

void StatisticalTime::seal_up_to(std::int64_t bucket_exclusive) {
  std::size_t sealed = 0;
  for (; sealed < pending_.size() && pending_[sealed].index < bucket_exclusive;
       ++sealed) {
    FlowBatch& rows = pending_[sealed].rows;
    if (rows.size() >= config_.activity_threshold) {
      ++stats_.buckets_emitted;
      sink_(rows);
      stats_.records_out += rows.size();
    } else {
      ++stats_.buckets_discarded;
      stats_.dropped_inactive += rows.size();
    }
    rows.clear();
    spare_.push_back(std::move(rows));
  }
  pending_.erase(pending_.begin(),
                 pending_.begin() + static_cast<std::ptrdiff_t>(sealed));
}

}  // namespace ipd::netflow
