#include "rstp/obs/metrics.h"

#include <algorithm>
#include <array>
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
  // Reachable only when count > Σ buckets: the dashboard folds its relaxed
  // atomics without a snapshot, so the count can lead the buckets by a few
  // in-flight increments. Clamp to the last bucket — never past the array.
  return size - 1;
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

// ---------------------------------------------------------------------------
// MetricsRegistry

struct MetricsRegistry::Shard {
  std::array<std::atomic<std::uint64_t>, MetricsRegistry::kMaxMetrics> slots{};
};

namespace {

std::uint64_t next_registry_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// This thread's shard cache: (registry id, shard). Registry ids are never
/// reused, so a stale entry for a destroyed registry can never be mistaken
/// for a live one. Registries per process are few; linear scan wins.
struct TlsEntry {
  std::uint64_t registry_id;
  void* shard;
};

thread_local std::vector<TlsEntry> tls_shards;

}  // namespace

MetricsRegistry::MetricsRegistry() : registry_id_(next_registry_id()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::MetricId MetricsRegistry::counter(std::string_view name) {
  const std::scoped_lock lock{mutex_};
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      RSTP_CHECK(!is_gauge_[i], "metric already registered as a gauge");
      return i;
    }
  }
  RSTP_CHECK_LT(names_.size(), kMaxMetrics, "metrics registry is full");
  names_.emplace_back(name);
  is_gauge_.push_back(false);
  return names_.size() - 1;
}

MetricsRegistry::MetricId MetricsRegistry::gauge(std::string_view name) {
  const std::scoped_lock lock{mutex_};
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      RSTP_CHECK(is_gauge_[i], "metric already registered as a counter");
      return i;
    }
  }
  RSTP_CHECK_LT(names_.size(), kMaxMetrics, "metrics registry is full");
  names_.emplace_back(name);
  is_gauge_.push_back(true);
  return names_.size() - 1;
}

MetricsRegistry::Shard& MetricsRegistry::shard_for_this_thread() {
  for (const TlsEntry& entry : tls_shards) {
    if (entry.registry_id == registry_id_) {
      return *static_cast<Shard*>(entry.shard);
    }
  }
  const std::scoped_lock lock{mutex_};
  shards_.push_back(std::make_unique<Shard>());
  Shard& shard = *shards_.back();
  tls_shards.push_back(TlsEntry{registry_id_, &shard});
  return shard;
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) {
  RSTP_CHECK_LT(id, kMaxMetrics, "metric id out of range");
  Shard& shard = shard_for_this_thread();
  shard.slots[id].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_max(MetricId id, std::uint64_t value) {
  RSTP_CHECK_LT(id, kMaxMetrics, "metric id out of range");
  Shard& shard = shard_for_this_thread();
  std::atomic<std::uint64_t>& slot = shard.slots[id];
  // The shard has a single writer (this thread); the atomic type exists for
  // the collector's concurrent reads, so a plain load/store max suffices.
  if (value > slot.load(std::memory_order_relaxed)) {
    slot.store(value, std::memory_order_relaxed);
  }
}

std::vector<MetricsRegistry::Sample> MetricsRegistry::collect() const {
  const std::scoped_lock lock{mutex_};
  std::vector<Sample> out;
  out.reserve(names_.size());
  for (std::size_t i = 0; i < names_.size(); ++i) {
    Sample sample;
    sample.name = names_[i];
    sample.is_gauge = is_gauge_[i];
    for (const auto& shard : shards_) {
      const std::uint64_t v = shard->slots[i].load(std::memory_order_relaxed);
      sample.value = sample.is_gauge ? std::max(sample.value, v) : sample.value + v;
    }
    out.push_back(std::move(sample));
  }
  return out;
}

std::uint64_t MetricsRegistry::value(MetricId id) const {
  const std::scoped_lock lock{mutex_};
  RSTP_CHECK_LT(id, names_.size(), "metric id out of range");
  std::uint64_t merged = 0;
  for (const auto& shard : shards_) {
    const std::uint64_t v = shard->slots[id].load(std::memory_order_relaxed);
    merged = is_gauge_[id] ? std::max(merged, v) : merged + v;
  }
  return merged;
}

void MetricsRegistry::reset() {
  const std::scoped_lock lock{mutex_};
  for (const auto& shard : shards_) {
    for (auto& slot : shard->slots) {
      slot.store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry& global_registry() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace rstp::obs
