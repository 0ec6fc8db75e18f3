// The estimator suite (ctest -L est): unit pins on the EWMA estimator and
// the block planner, convergence pins on fixed seeds, drifting
// re-convergence after a breakpoint, the resize-at-block-boundary-only
// invariant, and the golden estimator grid's stationary-penalty budget plus
// its bitwise determinism across thread counts.
#include <gtest/gtest.h>

#include <cmath>

#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/core/drift.h"
#include "rstp/core/effort.h"
#include "rstp/core/verify.h"
#include "rstp/est/estimator.h"
#include "rstp/est/runner.h"
#include "rstp/protocols/block_planner.h"
#include "rstp/sim/campaign.h"

namespace rstp::est {
namespace {

using protocols::BlockPlan;
using protocols::BlockPlanner;
using protocols::ProtocolKind;

TEST(EstimatorConfig, ValidatesItsRanges) {
  EstimatorConfig good;
  good.validate();  // the defaults are legal

  EstimatorConfig bad = good;
  bad.margin = 1.0;
  EXPECT_THROW(bad.validate(), ContractViolation);
  bad = good;
  bad.margin = -0.1;
  EXPECT_THROW(bad.validate(), ContractViolation);
  bad = good;
  bad.gain = 0.0;
  EXPECT_THROW(bad.validate(), ContractViolation);
  bad = good;
  bad.var_gain = 1.5;
  EXPECT_THROW(bad.validate(), ContractViolation);
  bad = good;
  bad.max_block = 0;
  EXPECT_THROW(bad.validate(), ContractViolation);
}

TEST(TimingEstimator, NoSamplesGivesTheUnitProbe) {
  const TimingEstimator est{EstimatorConfig{}};
  const core::TimingParams p = est.estimate();
  EXPECT_EQ(p.c1.ticks(), 1);
  EXPECT_EQ(p.c2.ticks(), 1);
  EXPECT_EQ(p.d.ticks(), 1);
}

TEST(TimingEstimator, ConstantSamplesConvergeExactlyAtZeroMargin) {
  EstimatorConfig cfg;
  cfg.margin = 0.0;
  TimingEstimator est{cfg};
  for (int i = 0; i < 200; ++i) {
    est.observe_gap(Duration{2});
    est.observe_delay(Duration{6});
  }
  const core::TimingParams p = est.estimate();
  EXPECT_EQ(p.c1.ticks(), 2);  // running min of a constant stream
  EXPECT_EQ(p.c2.ticks(), 2);  // variance decays to 0, srtt sits on the value
  EXPECT_EQ(p.d.ticks(), 6);
  EXPECT_EQ(est.gap_samples(), 200u);
  EXPECT_EQ(est.delay_samples(), 200u);
}

TEST(TimingEstimator, MarginWidensTheBracketOnBothSides) {
  EstimatorConfig cfg;
  cfg.margin = 0.25;
  TimingEstimator est{cfg};
  for (int i = 0; i < 400; ++i) {
    est.observe_gap(Duration{4});
    est.observe_delay(Duration{8});
  }
  const core::TimingParams p = est.estimate();
  EXPECT_EQ(p.c1.ticks(), 3);   // floor(4 * 0.75): conservative from below
  EXPECT_EQ(p.c2.ticks(), 5);   // round(4 * 1.25): conservative from above
  EXPECT_EQ(p.d.ticks(), 10);   // round(8 * 1.25)
}

TEST(TimingEstimator, LegalityHoldsUnderAdversarialSampleStreams) {
  // The clamp chain must keep 1 <= c1 <= c2 <= d after *every* observation,
  // no matter how wild the sample sequence — this is the P8 illegal-state
  // guarantee at its source.
  Rng rng{0xAD5A};
  TimingEstimator est{EstimatorConfig{}};
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t magnitude = rng.next_in(0, 1'000'000);
    if (rng.next_below(2) == 0) {
      est.observe_gap(Duration{magnitude});
    } else {
      est.observe_delay(Duration{magnitude});
    }
    const core::TimingParams p = est.estimate();
    ASSERT_GE(p.c1.ticks(), 1) << "after sample " << i;
    ASSERT_LE(p.c1.ticks(), p.c2.ticks()) << "after sample " << i;
    ASSERT_LE(p.c2.ticks(), p.d.ticks()) << "after sample " << i;
  }
}

TEST(BlockPlanner, PlansAreFrozenAndResizeOnlyAtBoundaries) {
  // δ may change only when a *new* block is planned: once plan(j) is
  // computed it is frozen, however far the estimates move afterwards. This
  // is the resize-at-block-boundary-only invariant, checked at its source.
  EstimatorConfig cfg;
  cfg.margin = 0.0;
  auto est = std::make_shared<TimingEstimator>(cfg);
  for (int i = 0; i < 100; ++i) {
    est->observe_gap(Duration{2});
    est->observe_delay(Duration{6});
  }
  std::vector<ioa::Bit> input(40, 1);
  BlockPlanner planner{BlockPlanner::Discipline::TimedBlocks, 4, input, est};

  // A copy: computing plan(1) may reallocate the planner's plan storage.
  const BlockPlan p0 = planner.plan(0);
  EXPECT_EQ(p0.delta, 3u);  // ceil(6/2) for the timed (β) discipline
  EXPECT_EQ(p0.wait, 3u);
  EXPECT_EQ(p0.first_bit, 0u);
  EXPECT_EQ(planner.resizes(), 0u);

  // Move the estimates dramatically; the frozen plan must not budge.
  for (int i = 0; i < 400; ++i) est->observe_delay(Duration{50});
  EXPECT_EQ(planner.plan(0).delta, 3u);
  EXPECT_EQ(planner.plan(0).symbols, p0.symbols);
  EXPECT_EQ(planner.resizes(), 0u);

  // The next boundary picks up the new d̂ — and counts as one resize.
  const BlockPlan& p1 = planner.plan(1);
  EXPECT_EQ(p1.delta, 25u);  // ceil(50/2)
  EXPECT_EQ(p1.first_bit, p0.bits);
  EXPECT_EQ(planner.resizes(), 1u);

  // Plans are computed sequentially: skipping ahead is a contract violation.
  EXPECT_THROW(planner.plan(3), ContractViolation);
}

TEST(BlockPlanner, AckedDisciplineUsesDelta2AndNeverWaits) {
  EstimatorConfig cfg;
  cfg.margin = 0.0;
  auto est = std::make_shared<TimingEstimator>(cfg);
  for (int i = 0; i < 100; ++i) {
    est->observe_gap(Duration{2});
    est->observe_delay(Duration{6});
  }
  std::vector<ioa::Bit> input(16, 0);
  BlockPlanner planner{BlockPlanner::Discipline::AckedBlocks, 4, input, est};
  const BlockPlan& p0 = planner.plan(0);
  EXPECT_EQ(p0.delta, 3u);  // floor(6/2) = δ2 for the acked (γ) discipline
  EXPECT_EQ(p0.wait, 0u);
}

TEST(DriftSpec, ParsesRoundTripsAndNamesBadTokens) {
  const core::DriftSpec spec = core::DriftSpec::parse("0:9,250:4:1,600:7");
  ASSERT_EQ(spec.segments.size(), 3u);
  EXPECT_EQ(spec.segments[0].start, Time{0});
  EXPECT_EQ(spec.segments[1].d_eff, Duration{4});
  EXPECT_EQ(spec.segments[1].c2_eff, Duration{1});
  EXPECT_FALSE(spec.segments[2].c2_eff.has_value());
  EXPECT_EQ(core::DriftSpec::parse(spec.to_string()), spec);

  const auto token_of = [](std::string_view text) {
    try {
      (void)core::DriftSpec::parse(text);
    } catch (const core::DriftParseError& e) {
      return e.token();
    }
    return std::string{"<no error>"};
  };
  EXPECT_EQ(token_of("nope"), "nope");
  EXPECT_EQ(token_of("0:9,250"), "250");
  EXPECT_EQ(token_of("0:x"), "0:x");
}

TEST(DriftSpec, ValidateRejectsIllegalSchedules) {
  EXPECT_THROW((void)core::DriftSpec::parse("5:3"), core::DriftParseError);      // must start at 0
  EXPECT_THROW((void)core::DriftSpec::parse("0:3,0:4"), core::DriftParseError);  // increasing
  core::DriftSpec hand_built;
  hand_built.segments.push_back({Time{3}, Duration{4}, std::nullopt});
  EXPECT_THROW(hand_built.validate(), ContractViolation);
}

TEST(Convergence, WorstCaseCellPinsExactEstimates) {
  // Under worst_case (gaps ≡ c2, delays ≡ d) with margin 0 the estimator
  // must land exactly on (c2, c2, d): the realized channel *is* the truth.
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.k = 4;
  cfg.input = core::make_random_input(256, 1);
  EstimatorConfig est_cfg;
  est_cfg.margin = 0.0;
  const EstimatedRun run = run_estimated(ProtocolKind::Beta, cfg, core::Environment::worst_case(),
                                         core::DriftSpec{}, true, est_cfg);
  EXPECT_TRUE(run.run.output_correct);
  EXPECT_TRUE(run.run.result.quiescent);
  EXPECT_EQ(run.gauges.c1_hat, 2);
  EXPECT_EQ(run.gauges.c2_hat, 2);
  EXPECT_EQ(run.gauges.d_hat, 6);
  EXPECT_GT(run.gauges.gap_samples, 0u);
  EXPECT_GT(run.gauges.delay_samples, 0u);
  const core::VerifyResult verdict =
      core::verify_trace(run.run.result.trace, cfg.params, cfg.input);
  EXPECT_TRUE(verdict.ok()) << verdict;
}

TEST(Convergence, DriftingRunReconvergesAfterTheBreakpoint) {
  // True d drops 6 → 3 at t = 120; the EWMA must chase it back *down* (a
  // running max never would) and the run must still finish correctly.
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.k = 4;
  cfg.input = core::make_random_input(64, 1);
  EstimatorConfig est_cfg;
  est_cfg.margin = 0.0;
  const core::DriftSpec drift = core::DriftSpec::parse("0:6,120:3");
  const EstimatedRun run = run_estimated(ProtocolKind::Gamma, cfg,
                                         core::Environment::worst_case(), drift, true, est_cfg);
  EXPECT_TRUE(run.run.output_correct);
  EXPECT_TRUE(run.run.result.quiescent);
  EXPECT_EQ(run.gauges.c2_hat, 2);
  EXPECT_EQ(run.gauges.d_hat, 3) << "d̂ did not re-converge to the post-breakpoint delay";
  // Drifting executions are clamped into the envelope, so the plain
  // verifier accepts them with no excusal machinery.
  const core::VerifyResult verdict =
      core::verify_trace(run.run.result.trace, cfg.params, cfg.input);
  EXPECT_TRUE(verdict.ok()) << verdict;
}

TEST(GoldenGrid, StationaryCellsStayWithinTheOraclePenaltyBudget) {
  // The acceptance bar: estimator-driven effort within 5% of the oracle on
  // every stationary cell of the golden grid. Drifting cells may pay more
  // (the estimator is chasing a moving target) but must stay correct.
  const sim::Campaign campaign{golden_estimator_spec()};
  const sim::CampaignResult result = campaign.run(2);
  EXPECT_EQ(result.incorrect, 0u);
  ASSERT_EQ(result.jobs.size(), campaign.job_count());
  for (const sim::CampaignJobResult& job : result.jobs) {
    ASSERT_GT(job.est_penalty, 0.0) << "job " << job.index;
    EXPECT_GE(job.est.c1_hat, 1) << "job " << job.index;
    EXPECT_LE(job.est.c1_hat, job.est.c2_hat) << "job " << job.index;
    EXPECT_LE(job.est.c2_hat, job.est.d_hat) << "job " << job.index;
    if (campaign.job(job.index).drift.empty()) {
      EXPECT_LE(job.est_penalty, 1.05)
          << "stationary job " << job.index << " exceeds the 5% oracle budget";
    }
  }
  EXPECT_GT(result.est_penalty.mean, 0.0);
  EXPECT_GE(result.est_penalty.max, result.est_penalty.mean);
}

TEST(GoldenGrid, BitwiseIdenticalAcrossThreadCounts) {
  // The estimator axis must not cost the campaign its determinism contract:
  // the whole CampaignResult (efforts, penalties, gauges, metrics) compares
  // equal for any worker count.
  const sim::Campaign campaign{golden_estimator_spec()};
  const sim::CampaignResult serial = campaign.run(1);
  EXPECT_EQ(serial, campaign.run(3));
  EXPECT_EQ(serial, campaign.run(8));
}

TEST(GoldenGrid, DisabledEstimatorMatchesThePlainRunner) {
  // run_estimated with no drift and no estimator is exactly
  // core::run_protocol — same seed stream, same trace.
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(2, 3, 9);
  cfg.k = 8;
  cfg.input = core::make_random_input(48, 7);
  const core::Environment env = core::Environment::randomized(99);
  const core::ProtocolRun plain = core::run_protocol(ProtocolKind::Gamma, cfg, env);
  const EstimatedRun est = run_estimated(ProtocolKind::Gamma, cfg, env, core::DriftSpec{}, false);
  EXPECT_EQ(plain.result.trace.events(), est.run.result.trace.events());
  EXPECT_EQ(est.gauges, obs::EstimatorGauges{});
}

TEST(PenaltyFold, GuardsTheZeroOracleDenominator) {
  // The healthy path: a plain ratio.
  EXPECT_DOUBLE_EQ(fold_est_penalty(200.0, 300.0), 1.5);
  EXPECT_DOUBLE_EQ(fold_est_penalty(100.0, 50.0), 0.5);  // below 1 is legitimate
  // Neither run sent: 0, the schema's "not applicable" value.
  EXPECT_DOUBLE_EQ(fold_est_penalty(0.0, 0.0), 0.0);
  // Only the oracle stayed silent: the raw ratio would be inf — the fold
  // must hand back the finite sentinel instead so est_penalty_max gates trip
  // loudly rather than choking on a non-finite JSON value.
  EXPECT_DOUBLE_EQ(fold_est_penalty(0.0, 300.0), kDegenerateEstPenalty);
  EXPECT_TRUE(std::isfinite(fold_est_penalty(0.0, 300.0)));
  EXPECT_TRUE(std::isfinite(kDegenerateEstPenalty));
}

}  // namespace
}  // namespace rstp::est
