#include "rstp/obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "rstp/common/check.h"

namespace rstp::obs {

std::size_t nearest_rank_bucket(const std::uint64_t* buckets, std::size_t size,
                                std::uint64_t count, double p) {
  if (count == 0 || size == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 100.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(count)));
  rank = std::max<std::uint64_t>(1, std::min(rank, count));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < size; ++i) {
    seen += buckets[i];
    if (seen >= rank) return i;
  }
  detail::contract_failure("count <= sum of buckets", "count exceeds the bucket sum",
                           std::source_location::current());
}

// ---------------------------------------------------------------------------
// Histogram

Histogram::Histogram(std::int64_t lo, std::int64_t hi, std::size_t max_buckets) : lo_(lo) {
  RSTP_CHECK_LE(lo, hi, "histogram window requires lo <= hi");
  RSTP_CHECK_GE(max_buckets, std::size_t{1}, "histogram needs at least one bucket");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  const auto cap = static_cast<std::uint64_t>(max_buckets);
  width_ = static_cast<std::int64_t>((span + cap - 1) / cap);
  const std::uint64_t buckets = (span + static_cast<std::uint64_t>(width_) - 1) /
                                static_cast<std::uint64_t>(width_);
  buckets_.assign(static_cast<std::size_t>(buckets), 0);
}

Histogram Histogram::from_parts(std::int64_t lo, std::int64_t width,
                                std::vector<std::uint64_t> buckets, std::uint64_t count,
                                std::int64_t sum, std::int64_t min, std::int64_t max) {
  RSTP_CHECK_GE(width, std::int64_t{1}, "histogram bucket width must be positive");
  RSTP_CHECK(!buckets.empty(), "histogram parts need at least one bucket");
  std::uint64_t total = 0;
  for (const std::uint64_t b : buckets) total += b;
  RSTP_CHECK_EQ(total, count, "histogram bucket counts must sum to count");
  if (count > 0) {
    RSTP_CHECK_LE(min, max, "histogram parts require min <= max");
  }
  Histogram h;
  h.lo_ = lo;
  h.width_ = width;
  h.buckets_ = std::move(buckets);
  h.count_ = count;
  h.sum_ = sum;
  h.min_ = count == 0 ? 0 : min;
  h.max_ = count == 0 ? 0 : max;
  return h;
}

double Histogram::mean() const {
  if (count_ == 0) return 0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

std::int64_t Histogram::percentile(double p) const {
  RSTP_CHECK(p >= 0.0 && p <= 100.0, "percentile requires p in [0, 100]");
  if (count_ == 0) return 0;
  const std::size_t i = nearest_rank_bucket(buckets_.data(), buckets_.size(), count_, p);
  // Report the bucket's upper edge, clamped to the observed extremes so
  // width-1 buckets are exact and wide buckets never overshoot max().
  const std::int64_t edge = lo_ + static_cast<std::int64_t>(i + 1) * width_ - 1;
  return std::clamp(edge, min_, max_);
}

void Histogram::merge(const Histogram& other) {
  RSTP_CHECK(configured() && other.configured(), "merge requires configured histograms");
  RSTP_CHECK(lo_ == other.lo_ && width_ == other.width_ &&
                 buckets_.size() == other.buckets_.size(),
             "histogram merge requires an identical bucket layout");
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  count_ += other.count_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

}  // namespace rstp::obs
