// rstp::obs — the always-cheap instrumentation layer (metrics registry,
// fixed-bucket histograms, scoped phase timers).
//
// Design constraints, in order:
//   1. Deterministic merges. Campaign workers record concurrently; every
//      shard-merged quantity must be bitwise identical across thread counts.
//      All shard state is integral (counter sums and gauge maxima are
//      order-independent folds), so the merged snapshot is reproducible no
//      matter how the OS interleaved the recording threads. Wall-clock phase
//      timers are the one observational (non-reproducible) quantity; they are
//      kept out of RunMetrics and CampaignResult for exactly that reason.
//   2. No contention on the hot path. Each recording thread owns a private
//      shard (2 KiB, registered once under a mutex); add() is a thread-local
//      lookup plus a relaxed atomic increment — no shared cache line is
//      written by two threads.
//   3. Branch-cheap when idle. Phase timers are gated on one relaxed atomic
//      bool; with timing disabled (the default) an instrumented hot path
//      pays a single predictable branch and never reads the clock.
//
// Naming scheme (docs/OBSERVABILITY.md): lowercase path segments separated
// by '/', "<subsystem>/<quantity>[/<unit>]" — e.g. "campaign/jobs",
// "phase/codec_rank/ns". Registering the same name twice returns the same id.
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
#include "rstp/common/time.h"

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
      const auto offset = static_cast<std::uint64_t>(value - lo_);
      // Width 1 is the common (exact) layout; skip the integer divide for it.
      const std::uint64_t raw =
          width_ == 1 ? offset : offset / static_cast<std::uint64_t>(width_);
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

  /// Per-shard slot capacity; registering more metrics than this throws.
  /// Sized for the flat phase totals plus the realized parent/child edge
  /// counters of the nested timers with ample headroom (4 KiB per shard).
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

  /// This thread's raw slot array (kMaxMetrics relaxed atomics, indexed by
  /// MetricId). Implementation detail for the phase-timer exit path, which
  /// batches several increments through a single thread-local lookup; all
  /// other callers should use add()/gauge_max().
  [[nodiscard]] std::atomic<std::uint64_t>* thread_slots();

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

/// The process-wide registry used by the built-in instrumentation (phase
/// timers, campaign counters). Lives until process exit.
[[nodiscard]] MetricsRegistry& global_registry();

// ---------------------------------------------------------------------------
// Scoped wall-clock phase timers for the simulation hot paths.
//
// Timers nest: each recording thread keeps a stack of active phases, and a
// timer's elapsed time is recorded twice — once under its own flat
// "phase/<name>/{calls,ns}" totals (the original four-phase layout is a
// strict subset of these), and once under the parent/child edge
// "phase/<parent>/<child>/{calls,ns}" for the innermost enclosing phase, if
// any. The edge counters are what lets `rstp run --timing` render a
// flamegraph-style breakdown (sim step → protocol apply → codec rank) and
// the diff gate localize which phase regressed.

enum class Phase : std::uint8_t {
  CodecRank = 0,   ///< MultisetCodec::rank
  CodecUnrank,     ///< MultisetCodec::unrank
  ChannelPop,      ///< Channel::collect_due
  SimStep,         ///< Simulator::take_process_step (incl. scheduler gap)
  ProtoEnabled,    ///< automaton enabled_local() inside a sim step
  ProtoApply,      ///< automaton apply() of a locally chosen action
  ProtoRecv,       ///< automaton apply() of a delivered packet
  SchedGap,        ///< StepScheduler gap validation
  RecordEvent,     ///< event bookkeeping (counters, optional trace append)
  Deliver,         ///< Simulator::deliver_due (channel pop + recv applies)
  ChannelPush,     ///< Channel::send (delivery policy + heap push)
  StepAccount,     ///< per-step/per-delivery counter + histogram bookkeeping
};
inline constexpr std::size_t kPhaseCount = 12;

[[nodiscard]] std::string_view to_string(Phase phase);

/// Phase timing is off by default: instrumented code pays one relaxed atomic
/// load and never touches the clock. Enable around a region of interest
/// (e.g. `rstp run --timing`). Enabling also calibrates the host clock
/// (common/time.h), so timestamps come from the TSC when the CPU supports it.
void set_phase_timing_enabled(bool enabled);
[[nodiscard]] bool phase_timing_enabled();

/// Measures the cost of one armed ScopedPhaseTimer enter/exit pair (two clock
/// reads plus the stack and registry bookkeeping) by timing a tight loop of
/// empty timers, min-of-trials to filter preemption. The result is stored
/// process-wide, published as the "phase/_overhead/ns_per_pair" gauge in the
/// global registry (and re-published across reset_phase_totals), and returned.
/// The calibration loop itself records into the phase counters — call
/// reset_phase_totals() afterwards, before the workload you want attributed.
/// Temporarily enables phase timing if it is off.
std::uint64_t measure_phase_overhead_ns_per_pair();

/// The last measured timer-pair overhead (0 before any measurement). What
/// `rstp run --timing` subtracts to print net-of-overhead attribution.
[[nodiscard]] std::uint64_t phase_overhead_ns_per_pair();

struct PhaseTotal {
  Phase phase{};
  std::uint64_t calls = 0;
  std::uint64_t nanos = 0;
};

/// Merged "phase/<name>/{calls,ns}" counters from the global registry.
[[nodiscard]] std::vector<PhaseTotal> collect_phase_totals();

/// One parent→child attribution: time the child phase spent directly inside
/// the parent. Edges aggregate over every instance of the pair, so a child's
/// flat total minus the sum of its incoming edges is its top-level time.
struct PhaseEdgeTotal {
  Phase parent{};
  Phase child{};
  std::uint64_t calls = 0;
  std::uint64_t nanos = 0;
};

/// Merged "phase/<parent>/<child>/{calls,ns}" counters, in (parent, child)
/// enum order; only edges that actually occurred are returned.
[[nodiscard]] std::vector<PhaseEdgeTotal> collect_phase_edge_totals();

/// Zeroes the phase counters (global registry reset of the phase slots only
/// is not supported; this resets the whole global registry).
void reset_phase_totals();

namespace detail {
/// Hot-path gate for ScopedPhaseTimer. Mutate only through
/// set_phase_timing_enabled(); read with relaxed ordering.
extern std::atomic<bool> phase_timing_flag;
/// Monotonic clock read — the calibrated host clock (TSC when available,
/// steady_clock otherwise; see common/time.h). Inline so the timer ctor reads
/// it directly, before any other instrumentation work — everything the
/// machinery does then falls inside the measured interval and is attributed
/// to the phase it measures, not smeared into the enclosing phase's self time.
[[nodiscard]] inline std::uint64_t phase_now_ns() { return rstp::host_now_ns(); }
/// Pushes `phase` on this thread's phase stack.
void phase_push(Phase phase);
/// Pops the stack and records the elapsed time: the call count plus either
/// the parent/child edge (when nested) or the phase's top-level slot. After
/// its own clock read it performs exactly one relaxed add, so per-timer
/// cost outside the measured interval stays a few nanoseconds.
void phase_exit(Phase phase, std::uint64_t start_ns);
}  // namespace detail

/// RAII timer: records one call + elapsed nanoseconds into the global
/// registry when phase timing is enabled (both the flat per-phase totals and
/// the parent/child edge for the enclosing timer); a no-op branch otherwise.
/// Inline so the disabled path (the default on the simulation hot paths)
/// compiles down to one relaxed load and a predictable branch — no call, no
/// clock read, no stack traffic.
class ScopedPhaseTimer {
 public:
  explicit ScopedPhaseTimer(Phase phase)
      : phase_(phase),
        armed_(detail::phase_timing_flag.load(std::memory_order_relaxed)) {
    if (armed_) {
      start_ns_ = detail::phase_now_ns();
      detail::phase_push(phase_);
    }
  }
  ~ScopedPhaseTimer() {
    if (armed_) detail::phase_exit(phase_, start_ns_);
  }
  ScopedPhaseTimer(const ScopedPhaseTimer&) = delete;
  ScopedPhaseTimer& operator=(const ScopedPhaseTimer&) = delete;

 private:
  Phase phase_;
  bool armed_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace rstp::obs
