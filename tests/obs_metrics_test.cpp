// Tests for the obs instrumentation layer: fixed-bucket histograms and the
// shared nearest-rank kernel. The host-time recorder has its own suite,
// host_timing_test.cpp.
#include <gtest/gtest.h>

#include <vector>

#include "rstp/common/check.h"
#include "rstp/obs/metrics.h"

namespace rstp {
namespace {

using obs::Histogram;

TEST(Histogram, WidthOneBucketsGiveExactPercentiles) {
  Histogram h{0, 99};  // span 100 ≤ 64 buckets? no: width becomes 2
  EXPECT_EQ(h.bucket_width(), 2);
  Histogram exact{0, 63};
  EXPECT_EQ(exact.bucket_width(), 1);
  for (std::int64_t v = 1; v <= 20; ++v) exact.record(v);
  EXPECT_EQ(exact.count(), 20u);
  EXPECT_EQ(exact.sum(), 210);
  EXPECT_EQ(exact.min(), 1);
  EXPECT_EQ(exact.max(), 20);
  EXPECT_DOUBLE_EQ(exact.mean(), 10.5);
  // Nearest-rank over 1..20: p50 → rank 10 → value 10; p95 → rank 19; p99 →
  // rank 20.
  EXPECT_EQ(exact.percentile(50), 10);
  EXPECT_EQ(exact.percentile(95), 19);
  EXPECT_EQ(exact.percentile(99), 20);
  EXPECT_EQ(exact.percentile(0), 1);
  EXPECT_EQ(exact.percentile(100), 20);
}

TEST(Histogram, OutOfWindowValuesClampIntoEdgeBuckets) {
  Histogram h{0, 7};
  h.record(-5);
  h.record(100);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(7), 1u);
  // min/max still report the true extremes; percentiles stay inside the
  // window (they report the top bucket's upper edge, never invented values).
  EXPECT_EQ(h.min(), -5);
  EXPECT_EQ(h.max(), 100);
  EXPECT_EQ(h.percentile(99), 7);
}

TEST(Histogram, EmptyAndUnconfiguredBehaviour) {
  Histogram empty{0, 10};
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.min(), 0);
  EXPECT_EQ(empty.max(), 0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_EQ(empty.percentile(50), 0);

  Histogram unconfigured;
  EXPECT_FALSE(unconfigured.configured());
  EXPECT_THROW(unconfigured.record(1), ContractViolation);
}

TEST(Histogram, MergeRequiresIdenticalLayoutAndSums) {
  Histogram a{0, 15};
  Histogram b{0, 15};
  a.record(3);
  b.record(10);
  b.record(12);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.min(), 3);
  EXPECT_EQ(a.max(), 12);
  EXPECT_EQ(a.sum(), 25);

  Histogram other{0, 31};
  EXPECT_THROW(a.merge(other), ContractViolation);
}

TEST(Histogram, FromPartsRoundTripsExactly) {
  Histogram h{0, 63};
  for (const std::int64_t v : {0, 1, 1, 5, 40, 63}) h.record(v);
  std::vector<std::uint64_t> buckets;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) buckets.push_back(h.bucket(i));
  const Histogram rebuilt = Histogram::from_parts(h.lower_bound(), h.bucket_width(),
                                                  std::move(buckets), h.count(), h.sum(),
                                                  h.min(), h.max());
  EXPECT_EQ(rebuilt, h);
}

TEST(Histogram, FromPartsRejectsInconsistentParts) {
  // Bucket counts that do not sum to `count` must be rejected.
  EXPECT_THROW((void)Histogram::from_parts(0, 1, {1, 1}, 3, 2, 0, 1), ContractViolation);
  EXPECT_THROW((void)Histogram::from_parts(0, 0, {1}, 1, 0, 0, 0), ContractViolation);
  EXPECT_THROW((void)Histogram::from_parts(0, 1, {}, 0, 0, 0, 0), ContractViolation);
}

TEST(NearestRankBucket, EmptyAndAllZeroFoldsReturnBucketZero) {
  const std::uint64_t zeros[4] = {0, 0, 0, 0};
  EXPECT_EQ(obs::nearest_rank_bucket(zeros, 4, 0, 95.0), 0u);    // empty fold
  EXPECT_EQ(obs::nearest_rank_bucket(zeros, 0, 0, 50.0), 0u);    // no buckets at all
  EXPECT_EQ(obs::nearest_rank_bucket(zeros, 0, 7, 50.0), 0u);    // size 0 wins over count
}

TEST(NearestRankBucket, CountExceedingTheBucketSumIsAContractViolation) {
  // Every caller passes count == Σ buckets. A count the buckets cannot cover
  // makes the scan run dry before the rank; that is a contract failure, never
  // a read past the array or an invented bucket.
  const std::uint64_t zeros[3] = {0, 0, 0};
  EXPECT_THROW((void)obs::nearest_rank_bucket(zeros, 3, 10, 0.0), ContractViolation);
  EXPECT_THROW((void)obs::nearest_rank_bucket(zeros, 3, 10, 100.0), ContractViolation);
  const std::uint64_t partial[3] = {1, 1, 0};
  EXPECT_THROW((void)obs::nearest_rank_bucket(partial, 3, 5, 99.0),
               ContractViolation);  // rank 5 > sum 2
}

TEST(NearestRankBucket, PercentileArgumentClampsInto0To100) {
  const std::uint64_t buckets[3] = {5, 3, 2};
  EXPECT_EQ(obs::nearest_rank_bucket(buckets, 3, 10, -50.0), 0u);  // rank clamps up to 1
  EXPECT_EQ(obs::nearest_rank_bucket(buckets, 3, 10, 500.0), 2u);  // rank clamps to count
}

}  // namespace
}  // namespace rstp
