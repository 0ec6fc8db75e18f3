#include "rstp/est/runner.h"

#include <memory>
#include <utility>

#include "rstp/channel/policies.h"
#include "rstp/protocols/block_planner.h"
#include "rstp/sim/scheduler.h"
#include "rstp/sim/session.h"

namespace rstp::est {

namespace {

double effort_ticks(const core::ProtocolRun& run) {
  if (!run.result.last_transmitter_send.has_value()) return 0;
  return static_cast<double>((*run.result.last_transmitter_send - Time::zero()).ticks());
}

}  // namespace

EstimatedRun run_estimated(protocols::ProtocolKind kind, const protocols::ProtocolConfig& config,
                           const core::Environment& env, const core::DriftSpec& drift,
                           bool estimator_enabled, const EstimatorConfig& est_config,
                           sim::SimConfig sim_config) {
  // The config is copied only to attach the live planner.
  std::shared_ptr<TimingEstimator> estimator;
  protocols::ProtocolConfig with_planner;
  if (estimator_enabled) {
    // make_protocol rejects a planner for any kind but beta and gamma.
    using Discipline = protocols::BlockPlanner::Discipline;
    estimator = std::make_shared<TimingEstimator>(est_config);
    with_planner = config;
    with_planner.planner = std::make_shared<protocols::BlockPlanner>(
        kind == protocols::ProtocolKind::Beta ? Discipline::TimedBlocks : Discipline::AckedBlocks,
        config.k, config.input, estimator);
  }
  const protocols::ProtocolConfig& local = estimator_enabled ? with_planner : config;
  sim::ObserverTee tee{sim_config.observer, estimator.get()};
  sim_config.params = local.params;
  sim_config.observer = tee.armed();

  // A drift spec replaces the environment's schedulers and policy outright,
  // so the drifting session draws no environment seeds at all.
  std::unique_ptr<sim::Session> session;
  if (drift.empty()) {
    session = core::make_session(kind, local, env, std::move(sim_config));
  } else {
    session = std::make_unique<sim::Session>(
        protocols::make_protocol(kind, local), sim::make_drifting_scheduler(drift, local.params),
        sim::make_drifting_scheduler(drift, local.params),
        channel::make_drifting_delay(drift, local.params.d), std::move(sim_config));
  }
  if (estimator != nullptr) estimator->attach_channel(&session->channel());

  EstimatedRun out;
  out.run.result = session->run();
  out.run.output_correct = out.run.result.output == local.input;
  if (estimator != nullptr) {
    const core::TimingParams estimate = estimator->estimate();
    out.gauges.c1_hat = estimate.c1.ticks();
    out.gauges.c2_hat = estimate.c2.ticks();
    out.gauges.d_hat = estimate.d.ticks();
    out.gauges.gap_samples = estimator->gap_samples();
    out.gauges.delay_samples = estimator->delay_samples();
    out.gauges.resizes = local.planner->resizes();
  }
  return out;
}

PenaltyRun run_penalty_pair(protocols::ProtocolKind kind,
                            const protocols::ProtocolConfig& config,
                            const core::Environment& env, const core::DriftSpec& drift,
                            const EstimatorConfig& est_config, std::uint64_t max_events) {
  PenaltyRun out;
  const sim::SimConfig headless{.max_events = max_events, .record_trace = false};
  out.oracle =
      run_estimated(kind, config, env, drift, /*estimator_enabled=*/false, est_config, headless)
          .run;
  out.estimated =
      run_estimated(kind, config, env, drift, /*estimator_enabled=*/true, est_config, headless);
  out.est_penalty = fold_est_penalty(effort_ticks(out.oracle), effort_ticks(out.estimated.run));
  return out;
}

double fold_est_penalty(double oracle_ticks, double estimated_ticks) {
  if (oracle_ticks > 0) return estimated_ticks / oracle_ticks;
  // The oracle never sent. If the estimated run was silent too, the pair has
  // no penalty to report (0, the schema's "not applicable"). If it DID send,
  // the raw division would hand the diff gate inf (or NaN for 0/0 with a
  // negative-ticks corruption) — report the finite sentinel instead so
  // `est_penalty_max` trips loudly rather than silently passing.
  return estimated_ticks > 0 ? kDegenerateEstPenalty : 0;
}

sim::CampaignSpec golden_estimator_spec() {
  sim::CampaignSpec spec;
  spec.protocols = {protocols::ProtocolKind::Beta, protocols::ProtocolKind::Gamma};
  spec.timings = {core::TimingParams::make(1, 2, 6), core::TimingParams::make(2, 3, 9)};
  spec.alphabets = {4, 8};
  spec.environments = {core::Environment::worst_case()};
  spec.seeds_per_cell = 1;
  spec.input_bits = 256;
  spec.campaign_seed = 0xE57;
  spec.estimator_enabled = true;
  // Margin 0: worst_case realizes gaps exactly at c2 and delays exactly at d,
  // so the pinned expectation is exact convergence, not a padded envelope.
  spec.estimator.margin = 0.0;
  // Breakpoints at 250 and 600 land inside every cell's run (the shortest
  // grid cell finishes around tick 760), exercising re-convergence both ways.
  spec.drifts = {core::DriftSpec{}, core::DriftSpec::parse("0:9,250:4,600:7")};
  return spec;
}

}  // namespace rstp::est
