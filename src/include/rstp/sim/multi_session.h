// The million-session engine: N independent (transmitter, channel,
// receiver) sessions of one cell, run and folded into one record.
//
// Where a Campaign runs a grid of different cells, MultiSession hosts many
// copies of one cell — the regime the ROADMAP's "millions of users" north
// star needs, and the aggregate many-flows view the timing-channel capacity
// literature frames throughput in. The architecture:
//
//   * Sessions are split into a fixed number of shards (spec.shards,
//     independent of the worker count). Each shard owns a contiguous session
//     range and runs its sessions back to back, in session order: each one
//     is a core::run_protocol call, run to completion and folded before the
//     next is built. Sessions share no action, so the order in which they
//     run cannot change any result bit; one session is alive per worker.
//   * Per-session seeds come from the campaign's derivation
//     (derive_unit_seeds over base_seed + session id), so session i is a
//     pure function of the spec and bitwise identical to a standalone
//     core::run_protocol call with the same derived seeds. The alphabet is
//     protocols::alphabet_for(protocol, k, input_bits), as every other
//     session builder sets it.
//   * Each shard has its own fold slot: the worker running a shard folds its
//     sessions into that slot in session order, and the slots merge
//     serially in shard order after the join. The result
//     is therefore bitwise identical across 1/3/8 threads and invariant to
//     the shard count (shards partition the session order into contiguous
//     runs, so the merged fold is always the session-order fold).
//
// events_per_sec / elapsed_seconds are the only wall-clock quantities and
// are excluded from every determinism comparison.
#pragma once

#include <cstdint>

#include "rstp/core/effort.h"
#include "rstp/core/params.h"
#include "rstp/obs/run_metrics.h"
#include "rstp/obs/sinks.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/campaign.h"

namespace rstp::sim {

/// The declarative megasession: one protocol/timing/environment cell,
/// N sessions with per-session derived seeds.
struct MultiSessionSpec {
  protocols::ProtocolKind protocol = protocols::ProtocolKind::Alpha;
  core::TimingParams params{};
  std::uint32_t k = 2;
  std::size_t input_bits = 64;  ///< |X| per session (random, per-session seed)
  /// Scheduler/delivery-policy choice; the `seed` field is ignored and
  /// replaced by each session's derived seed.
  core::Environment environment{};
  std::uint64_t sessions = 1;
  std::uint64_t base_seed = 1;  ///< root of every derived per-session stream
  /// Fixed shard count (sessions are split into `shards` contiguous ranges).
  /// Independent of the thread count by design — it must be, for the merged
  /// result to be bitwise identical across thread counts. A run uses at most
  /// `sessions` of them: a shard past that would be empty.
  std::uint32_t shards = 16;
  std::uint64_t max_events_per_session = 10'000'000;

  /// Throws rstp::ContractViolation on an invalid spec.
  void validate() const;
};

/// The deterministic fold over all sessions (session order), plus the two
/// wall-clock throughput figures.
struct MultiSessionResult {
  std::uint64_t sessions = 0;
  std::uint64_t correct_sessions = 0;    ///< Y == X
  std::uint64_t quiescent_sessions = 0;  ///< ended in global quiescence
  std::uint64_t total_events = 0;
  /// min/max/mean effort over sessions that sent at least once.
  CampaignAggregate effort{};
  /// Fold of every session's RunMetrics in session order (all sessions share
  /// one TimingParams, so the histogram layouts merge exactly).
  obs::RunMetrics metrics;
  /// Wall-clock figures — observational, excluded from determinism checks.
  double elapsed_seconds = 0;
  double events_per_sec = 0;

  [[nodiscard]] bool all_correct() const {
    return correct_sessions == sessions && quiescent_sessions == sessions;
  }

  /// Everything except the wall-clock fields — the bitwise determinism
  /// contract across thread counts and shard/thread schedules.
  [[nodiscard]] bool same_simulation(const MultiSessionResult& rhs) const {
    return sessions == rhs.sessions && correct_sessions == rhs.correct_sessions &&
           quiescent_sessions == rhs.quiescent_sessions && total_events == rhs.total_events &&
           effort == rhs.effort && metrics == rhs.metrics;
  }
};

class MultiSession {
 public:
  /// Validates and freezes the spec.
  explicit MultiSession(MultiSessionSpec spec);

  [[nodiscard]] const MultiSessionSpec& spec() const { return spec_; }

  /// Runs every shard on `threads` workers (0 = hardware concurrency) and
  /// merges. The fold is bitwise identical for every thread count.
  [[nodiscard]] MultiSessionResult run(unsigned threads = 1) const;

 private:
  MultiSessionSpec spec_;
};

/// Flattens a megasession run into one JSONL-exportable record carrying the
/// cell identity (seed = base_seed), the session-order metric fold, and the
/// `sessions` / `events_per_sec` schema fields. effort is the mean over
/// sending sessions; correct/quiescent require every session to pass.
[[nodiscard]] obs::RunMetricsRecord multi_session_metrics_record(
    const MultiSessionSpec& spec, const MultiSessionResult& result);

/// The checked-in megasession baseline cell
/// (tests/golden/megasession_baseline.jsonl): the `rstp mega` defaults at
/// 10k sessions — alpha, (1,2,4), k=2, 64 bits, 16 shards, seed 0x3E6A —
/// regenerated with `rstp mega --sessions 10000 --metrics-out <path>`.
[[nodiscard]] MultiSessionSpec golden_megasession_spec();

}  // namespace rstp::sim
