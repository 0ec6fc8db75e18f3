// rstp::obs — fixed-bucket histograms and the nearest-rank percentile
// kernel.
//
// Every quantity here is integral, so a histogram folded from per-job or
// per-shard parts (Histogram::merge) is bitwise identical whatever the
// thread count or interleaving that produced the parts. Host wall-clock time
// never enters a Histogram, RunMetrics or CampaignResult; it is measured
// only on request by obs::HostTimer (obs/host_timer.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "rstp/common/check.h"

namespace rstp::obs {

/// Nearest-rank fold over a fixed bucket array: the index of the bucket
/// containing the rank-⌈p/100·count⌉ observation (rank clamped into
/// [1, count]; p clamped into [0, 100]). The one percentile kernel shared by
/// Histogram::percentile and the trace summary — callers map the returned
/// index to their own value domain. An empty fold (count == 0 or size == 0)
/// returns bucket 0. Callers pass count == Σ buckets; a count above the
/// bucket sum is a ContractViolation.
[[nodiscard]] std::size_t nearest_rank_bucket(const std::uint64_t* buckets, std::size_t size,
                                              std::uint64_t count, double p);

/// A fixed-bucket linear histogram over int64 values with exact count / sum /
/// min / max and nearest-rank percentiles.
///
/// Buckets are linear over the configured [lo, hi] window: width
/// ceil(span / max_buckets). Out-of-window values clamp into the edge buckets
/// (min()/max() still report the true extremes), so record() can never
/// allocate or fail. With width 1 — the common case: delays live in [0, d],
/// gaps in [0, c2] — percentiles are exact; wider buckets report the bucket's
/// upper edge (classic nearest-rank-on-buckets).
class Histogram {
 public:
  /// Unconfigured (no buckets); record() on it is a contract violation.
  /// Exists so metric structs can be default-constructed then assigned.
  Histogram() = default;

  /// Linear buckets covering [lo, hi] with at most `max_buckets` buckets.
  Histogram(std::int64_t lo, std::int64_t hi, std::size_t max_buckets = 64);

  /// Rebuilds a histogram from its serialized parts (the JSONL sink's exact
  /// round trip). Throws ContractViolation when the parts are inconsistent
  /// (bucket counts must sum to `count`).
  [[nodiscard]] static Histogram from_parts(std::int64_t lo, std::int64_t width,
                                            std::vector<std::uint64_t> buckets,
                                            std::uint64_t count, std::int64_t sum,
                                            std::int64_t min, std::int64_t max);

  [[nodiscard]] bool configured() const { return !buckets_.empty(); }

  /// Inline: this runs once per simulation event on the campaign hot path.
  void record(std::int64_t value) {
    RSTP_CHECK(configured(), "record() on an unconfigured histogram");
    if (count_ == 0) {
      min_ = max_ = value;
    } else {
      min_ = std::min(min_, value);
      max_ = std::max(max_, value);
    }
    sum_ += value;
    ++count_;
    std::size_t index = 0;
    if (value > lo_) {
      std::uint64_t raw = static_cast<std::uint64_t>(value - lo_);
      // Width 1 is the common (exact) layout; skip the integer divide for it.
      // A branch, not a ?: select, which gcc folds into an unconditional div.
      if (width_ > 1) raw /= static_cast<std::uint64_t>(width_);
      index = std::min(buckets_.size() - 1, static_cast<std::size_t>(raw));
    }
    ++buckets_[index];
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  /// True extremes of recorded values (0 when empty).
  [[nodiscard]] std::int64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::int64_t max() const { return count_ == 0 ? 0 : max_; }
  [[nodiscard]] double mean() const;

  /// Nearest-rank percentile, p in [0, 100]; 0 when empty. p50/p95/p99 are
  /// the conventional calls. Exact when bucket width is 1.
  [[nodiscard]] std::int64_t percentile(double p) const;

  [[nodiscard]] std::int64_t lower_bound() const { return lo_; }
  [[nodiscard]] std::int64_t bucket_width() const { return width_; }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

  /// Adds another histogram's contents; both must share one bucket layout.
  void merge(const Histogram& other);

  friend bool operator==(const Histogram&, const Histogram&) = default;

 private:
  std::int64_t lo_ = 0;
  std::int64_t width_ = 1;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::int64_t sum_ = 0;
  std::uint64_t count_ = 0;
  std::vector<std::uint64_t> buckets_;
};

}  // namespace rstp::obs
