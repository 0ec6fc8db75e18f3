// Estimator-aware run drivers: the est-layer mirror of core::run_protocol.
//
// run_estimated() builds the same simulator stack as core::run_protocol but
// optionally (a) replaces the environment's schedulers/delivery policy with a
// core::DriftSpec-driven pair — scripted mid-run breakpoints, clamped so the
// execution stays in good(A) for the envelope — and (b) threads a
// TimingEstimator and a live protocols::BlockPlanner through ProtocolConfig
// so A^β/A^γ size each block from the (ĉ1, ĉ2, d̂) estimates.
//
// run_penalty_pair() runs a cell twice in the SAME environment — once with
// the oracle constants, once estimator-driven — and reports
// est_penalty = effort_est / effort_oracle, the quantity the golden grid and
// the diff gate track (`--fail-on 'est_penalty_max>5%'`). Note the penalty
// can legitimately be below 1: under a SlowFixed environment ĉ1 converges to
// the realized gap c2, which legally shrinks β's timed blocks relative to the
// worst-case oracle plan.
//
// Seed-stream parity: a stationary run builds its session through
// core::make_session, exactly as core::run_protocol does, so the oracle and
// estimated halves of a pair face the same environment. A drifting run
// replaces the schedulers and policy with the spec's and expands no seed.
#pragma once

#include <cstdint>

#include "rstp/core/drift.h"
#include "rstp/core/effort.h"
#include "rstp/est/estimator.h"
#include "rstp/sim/campaign.h"

namespace rstp::est {

/// One estimator-aware run: the protocol outcome plus the estimator's final
/// gauges (zero when the estimator was disabled).
struct EstimatedRun {
  core::ProtocolRun run;
  obs::EstimatorGauges gauges;
};

/// Mirror of core::run_protocol with a drift axis and an optional estimator.
/// An empty `drift` keeps the environment's own schedulers/policy; a
/// non-empty one substitutes DriftingSpecScheduler for both processes and
/// DriftingDelayPolicy for the channel. With `estimator_enabled` A^β/A^γ read
/// a live block plan (kind must be Beta or Gamma) and the run reports the
/// estimator's final state in `gauges`.
/// `sim_config` carries the run's trace switch, event cap, observer and host
/// timer; its params are replaced by `config.params`, and its observer
/// watches the run alongside the estimator.
[[nodiscard]] EstimatedRun run_estimated(protocols::ProtocolKind kind,
                                         const protocols::ProtocolConfig& config,
                                         const core::Environment& env,
                                         const core::DriftSpec& drift, bool estimator_enabled,
                                         const EstimatorConfig& est_config = EstimatorConfig{},
                                         sim::SimConfig sim_config = {.max_events = 50'000'000});

/// The finite sentinel fold_est_penalty reports when the estimated run sent
/// but the oracle never did: the ratio is degenerate (division by zero), and
/// the raw inf/NaN it would produce poisons everything downstream — NaN
/// compares false against every gate limit and neither survives a JSON
/// round-trip as a number. Large and finite, it instead trips any sane
/// `est_penalty_max` threshold loudly.
inline constexpr double kDegenerateEstPenalty = 1e9;

/// The guarded penalty fold, exposed for tests and for any sweep that folds
/// oracle/estimated efforts itself: effort_est / effort_oracle when the
/// oracle sent (oracle_ticks > 0); 0 when neither run sent (the schema's
/// "not applicable" value, as in pre-estimator rows); kDegenerateEstPenalty
/// when only the estimated run sent.
[[nodiscard]] double fold_est_penalty(double oracle_ticks, double estimated_ticks);

/// An oracle/estimator pair over one cell and the effort ratio between them.
struct PenaltyRun {
  core::ProtocolRun oracle;  ///< constants pinned to the true (c1, c2, d)
  EstimatedRun estimated;    ///< same environment, estimator-driven plans
  /// effort_est / effort_oracle via fold_est_penalty: 0 if neither run sent,
  /// kDegenerateEstPenalty if only the oracle stayed silent.
  double est_penalty = 0;
};

/// Runs the oracle first, then the estimated run, in the same environment
/// (same env.seed stream, same drift spec). Traces are not recorded — this
/// is the campaign/bench path.
[[nodiscard]] PenaltyRun run_penalty_pair(protocols::ProtocolKind kind,
                                          const protocols::ProtocolConfig& config,
                                          const core::Environment& env,
                                          const core::DriftSpec& drift,
                                          const EstimatorConfig& est_config = EstimatorConfig{},
                                          std::uint64_t max_events = 50'000'000);

/// The checked-in estimator baseline grid (tests/golden/estimator_baseline.jsonl):
/// {β, γ} × {(1,2,6), (2,3,9)} × k ∈ {4, 8} × worst_case × {stationary,
/// drifting "0:9,250:4,600:7"} — 16 cells, margin 0 (worst-case realized
/// gaps/delays sit exactly on the bounds, so exact convergence is the pin).
[[nodiscard]] sim::CampaignSpec golden_estimator_spec();

}  // namespace rstp::est
