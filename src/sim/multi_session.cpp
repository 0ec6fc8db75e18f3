#include "rstp/sim/multi_session.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <utility>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/obs/metrics.h"
#include "rstp/sim/search_support.h"

namespace rstp::sim {

namespace {

/// Global-registry slots the megasession engine reports into (same idempotent
/// lookup pattern as the campaign engine's ids).
struct MetricsRegistryIds {
  obs::MetricsRegistry::MetricId sessions = obs::global_registry().counter("mega/sessions");
  obs::MetricsRegistry::MetricId events = obs::global_registry().counter("mega/events");
  obs::MetricsRegistry::MetricId max_sessions =
      obs::global_registry().gauge("mega/max_sessions_per_run");
};

/// One shard's session-order fold. Effort is accumulated in integer ticks
/// (all sessions share input_bits, so mean = Σticks / (bits · senders)):
/// integer addition is associative, which is what makes the merged fold
/// invariant to the shard count, not just the thread count.
struct ShardFold {
  std::uint64_t sessions = 0;
  std::uint64_t correct = 0;
  std::uint64_t quiescent = 0;
  std::uint64_t total_events = 0;
  std::uint64_t effort_sessions = 0;  ///< sessions with t(last-send) > 0
  std::uint64_t effort_ticks_sum = 0;
  std::int64_t effort_ticks_min = 0;
  std::int64_t effort_ticks_max = 0;
  obs::RunMetrics metrics;
  bool metrics_valid = false;  ///< false only for an empty shard
};

void fold_effort_ticks(ShardFold& fold, std::int64_t ticks, std::uint64_t weight,
                       std::int64_t min_ticks, std::int64_t max_ticks) {
  if (fold.effort_sessions == 0) {
    fold.effort_ticks_min = min_ticks;
    fold.effort_ticks_max = max_ticks;
  } else {
    fold.effort_ticks_min = std::min(fold.effort_ticks_min, min_ticks);
    fold.effort_ticks_max = std::max(fold.effort_ticks_max, max_ticks);
  }
  fold.effort_ticks_sum += static_cast<std::uint64_t>(ticks);
  fold.effort_sessions += weight;
}

void fold_metrics(ShardFold& fold, const obs::RunMetrics& metrics) {
  if (!fold.metrics_valid) {
    // First session in the fold: adopt its metrics wholesale (this also
    // carries the histogram layouts — one TimingParams per spec, so every
    // later merge sees an identical layout).
    fold.metrics = metrics;
    fold.metrics_valid = true;
    return;
  }
  fold.metrics.counters += metrics.counters;
  fold.metrics.data_delay.merge(metrics.data_delay);
  fold.metrics.ack_delay.merge(metrics.ack_delay);
  fold.metrics.transmitter_gap.merge(metrics.transmitter_gap);
  fold.metrics.receiver_gap.merge(metrics.receiver_gap);
}

/// Runs sessions [lo, hi) back to back, each to completion through
/// core::run_protocol with its derived seeds, and folds each into the
/// shard's session-order fold as it finishes. One session is alive at a time.
ShardFold run_shard(const MultiSessionSpec& spec, std::uint64_t lo, std::uint64_t hi) {
  ShardFold fold;
  protocols::ProtocolConfig config;
  config.params = spec.params;
  config.k = protocols::alphabet_for(spec.protocol, spec.k, spec.input_bits);
  core::Environment env = spec.environment;
  for (std::uint64_t id = lo; id < hi; ++id) {
    const DerivedSeeds seeds = derive_unit_seeds(spec.base_seed, id);
    config.input = core::make_random_input(spec.input_bits, seeds.input);
    env.seed = seeds.environment;
    const core::ProtocolRun run = core::run_protocol(spec.protocol, config, env,
                                                     /*record_trace=*/false,
                                                     spec.max_events_per_session);
    const RunResult& r = run.result;
    ++fold.sessions;
    if (run.output_correct) ++fold.correct;
    if (r.quiescent) ++fold.quiescent;
    fold.total_events += r.event_count;
    if (spec.input_bits > 0 && r.last_transmitter_send.has_value()) {
      const std::int64_t ticks = (*r.last_transmitter_send - Time::zero()).ticks();
      // Same "sent at least once" criterion as the campaign fold: a last
      // send at t=0 reports effort 0 and does not count as a sender.
      if (ticks > 0) fold_effort_ticks(fold, ticks, 1, ticks, ticks);
    }
    fold_metrics(fold, r.metrics);
  }
  return fold;
}

}  // namespace

void MultiSessionSpec::validate() const {
  params.validate();
  RSTP_CHECK_GE(k, 2u, "mega needs k >= 2");
  RSTP_CHECK_GE(sessions, std::uint64_t{1}, "mega needs at least one session");
  RSTP_CHECK_GE(shards, 1u, "mega needs at least one shard");
  RSTP_CHECK_GE(max_events_per_session, std::uint64_t{1}, "mega needs a positive event cap");
}

MultiSession::MultiSession(MultiSessionSpec spec) : spec_(std::move(spec)) { spec_.validate(); }

MultiSessionResult MultiSession::run(unsigned threads) const {
  const std::uint64_t n = spec_.sessions;
  const std::uint64_t shard_count = spec_.shards;

  // Contiguous shard ranges via remainder spreading: the first n % shards
  // shards get one extra session. Ranges depend only on (sessions, shards).
  const std::uint64_t base = n / shard_count;
  const std::uint64_t extra = n % shard_count;
  const auto shard_lo = [&](std::uint64_t s) { return s * base + std::min(s, extra); };

  std::vector<ShardFold> folds(static_cast<std::size_t>(shard_count));

  // Work stealing over shards: each worker claims the next shard and writes
  // only its own fold slot, so the serial shard-order merge below sees
  // identical inputs for every thread count.
  const auto start = std::chrono::steady_clock::now();
  parallel_for_slots(folds.size(), threads, [&](std::size_t s) {
    folds[s] = run_shard(spec_, shard_lo(s), shard_lo(s + 1));
  });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Serial merge in shard order. Shards cover contiguous session ranges in
  // order and every fold operation here is associative (integer sums, min,
  // max, histogram bucket adds), so the merged result is the session-order
  // fold — independent of both the thread count and the shard count.
  MultiSessionResult result;
  ShardFold merged;
  for (const ShardFold& f : folds) {
    merged.sessions += f.sessions;
    merged.correct += f.correct;
    merged.quiescent += f.quiescent;
    merged.total_events += f.total_events;
    if (f.effort_sessions > 0) {
      fold_effort_ticks(merged, static_cast<std::int64_t>(f.effort_ticks_sum),
                        f.effort_sessions, f.effort_ticks_min, f.effort_ticks_max);
    }
    if (f.metrics_valid) fold_metrics(merged, f.metrics);
  }
  result.sessions = merged.sessions;
  result.correct_sessions = merged.correct;
  result.quiescent_sessions = merged.quiescent;
  result.total_events = merged.total_events;
  result.metrics = merged.metrics;
  if (merged.effort_sessions > 0 && spec_.input_bits > 0) {
    const auto bits = static_cast<double>(spec_.input_bits);
    result.effort.min = static_cast<double>(merged.effort_ticks_min) / bits;
    result.effort.max = static_cast<double>(merged.effort_ticks_max) / bits;
    result.effort.mean = static_cast<double>(merged.effort_ticks_sum) /
                         (bits * static_cast<double>(merged.effort_sessions));
  }
  result.elapsed_seconds = elapsed;
  if (elapsed > 0) {
    result.events_per_sec = static_cast<double>(result.total_events) / elapsed;
  }

  const MetricsRegistryIds registry_ids;
  obs::global_registry().add(registry_ids.sessions, result.sessions);
  obs::global_registry().add(registry_ids.events, result.total_events);
  obs::global_registry().gauge_max(registry_ids.max_sessions, result.sessions);
  return result;
}

obs::RunMetricsRecord multi_session_metrics_record(const MultiSessionSpec& spec,
                                                   const MultiSessionResult& result) {
  obs::RunMetricsRecord record;
  record.protocol = protocols::to_string(spec.protocol);
  record.c1 = spec.params.c1.ticks();
  record.c2 = spec.params.c2.ticks();
  record.d = spec.params.d.ticks();
  record.k = spec.k;
  record.input_bits = spec.input_bits;
  record.seed = spec.base_seed;
  record.effort = result.effort.mean;
  record.correct = result.correct_sessions == result.sessions;
  record.quiescent = result.quiescent_sessions == result.sessions;
  record.metrics = result.metrics;
  record.sessions = result.sessions;
  record.events_per_sec = result.events_per_sec;
  return record;
}

MultiSessionSpec golden_megasession_spec() {
  MultiSessionSpec spec;
  spec.params.c1 = Duration{1};
  spec.params.c2 = Duration{2};
  spec.params.d = Duration{4};
  spec.sessions = 10'000;
  spec.base_seed = 0x3E6A;
  return spec;
}

}  // namespace rstp::sim
