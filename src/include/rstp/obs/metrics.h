// rstp::obs — the always-cheap instrumentation layer (metrics registry and
// fixed-bucket histograms).
//
// Design constraints, in order:
//   1. Deterministic merges. Campaign workers record concurrently; every
//      shard-merged quantity must be bitwise identical across thread counts.
//      All shard state is integral (counter sums and gauge maxima are
//      order-independent folds), so the merged snapshot is reproducible no
//      matter how the OS interleaved the recording threads. Host wall-clock
//      time is the one non-reproducible quantity; it never enters the
//      registry, RunMetrics or CampaignResult, and is measured only on
//      request by obs::HostTimer (obs/host_timer.h).
//   2. No contention on the hot path. Each recording thread owns a private
//      shard (4 KiB, registered once under a mutex); add() is a thread-local
//      lookup plus a relaxed atomic increment — no shared cache line is
//      written by two threads.
//
// Naming scheme (docs/OBSERVABILITY.md): lowercase path segments separated
// by '/', "<subsystem>/<quantity>[/<unit>]" — e.g. "campaign/jobs",
// "est/c1_hat". Registering the same name twice returns the same id.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rstp/common/check.h"

namespace rstp::obs {

/// Nearest-rank fold over a fixed bucket array: the index of the bucket
/// containing the rank-⌈p/100·count⌉ observation (rank clamped into
/// [1, count]; p clamped into [0, 100]). The one percentile kernel shared by
/// Histogram::percentile, the dashboard's display fold, and the trace
/// summary — callers map the returned index to their own value domain.
/// Degenerate folds are part of the contract, not UB: an empty fold
/// (count == 0 or size == 0) returns bucket 0, and when `count` exceeds the
/// bucket sum — possible only for the dashboard's relaxed-atomic fold, where
/// the count and the buckets are read at slightly different moments — the
/// scan runs dry and clamps to the last bucket (size - 1). Coherent callers
/// pass count == Σ buckets and never hit the clamp.
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

/// Named counters and gauges recorded through lock-free thread-local shards.
///
/// Counters accumulate (merge = sum); gauges track a high-water mark
/// (merge = max). Both folds are order-independent over the integral shard
/// slots, so collect() is deterministic for any thread interleaving.
///
/// The registry must outlive every thread that records into it; shards are
/// owned by the registry and TLS entries are keyed by a never-reused registry
/// id, so a dangling lookup after destruction is impossible by construction.
class MetricsRegistry {
 public:
  using MetricId = std::size_t;

  /// Per-shard slot capacity; registering more metrics than this throws
  /// (4 KiB per shard).
  static constexpr std::size_t kMaxMetrics = 512;

  MetricsRegistry();
  ~MetricsRegistry();  // out of line: Shard is incomplete here
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or looks up) a counter / gauge by name.
  [[nodiscard]] MetricId counter(std::string_view name);
  [[nodiscard]] MetricId gauge(std::string_view name);

  /// Adds `delta` to a counter in this thread's shard. Lock-free after the
  /// thread's first touch of this registry.
  void add(MetricId id, std::uint64_t delta = 1);

  /// Raises this thread's shard slot to at least `value` (gauge high-water).
  void gauge_max(MetricId id, std::uint64_t value);

  struct Sample {
    std::string name;
    bool is_gauge = false;
    std::uint64_t value = 0;

    friend bool operator==(const Sample&, const Sample&) = default;
  };

  /// Merged view over all shards, in registration order (deterministic).
  [[nodiscard]] std::vector<Sample> collect() const;

  /// Merged value of one metric.
  [[nodiscard]] std::uint64_t value(MetricId id) const;

  /// Zeroes every shard slot (the metric names stay registered).
  void reset();

 private:
  struct Shard;
  Shard& shard_for_this_thread();

  std::uint64_t registry_id_;  // never reused; guards TLS cache validity
  mutable std::mutex mutex_;
  std::vector<std::string> names_;
  std::vector<bool> is_gauge_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// The process-wide registry used by the built-in instrumentation (campaign
/// and estimator counters). Lives until process exit.
[[nodiscard]] MetricsRegistry& global_registry();

}  // namespace rstp::obs
