// Randomized property tests over the whole stack. Every case is seeded and
// reproducible; the trace verifier (independently implemented) is the oracle.
//
// Properties checked, per the paper's problem statement (§4):
//   P1  Safety: at every moment Y is a prefix of X (checked by the verifier
//       on the full trace, plus on corrupted variants it must reject).
//   P2  Liveness: every good execution completes with Y = X.
//   P3  Model conformance: every simulator-produced execution is in good(A).
//   P4  Effort: worst-case measurements sit between the Theorem 5.3/5.6
//       lower bounds and the Lemma 6.1/§6.2 upper bounds.
//   P5  Determinism: identical seeds give identical executions.
//   P6  Safety under faults: fault-free fuzzed schedules satisfy P1–P3, and
//       with fault injection on, the verifier never reports a safety
//       violation that is not preceded by an injected-fault event.
//   P7  Synthesized schedules: every randomly generated legal ScheduleGenome
//       passes the legality checker and drives correct, quiescent in-model
//       runs; every illegal genome is rejected with a structured defect
//       naming the offending field and slot.
//   P8  Self-tuning: on random stationary in-model environments the online
//       (ĉ1, ĉ2, d̂) estimates bracket the realized channel (ĉ1 never above
//       the realized minimum gap; ĉ2/d̂ at or above the realized constants
//       whenever the environment pins them), every estimator-driven run
//       satisfies the verifier, and adversarial drift never drives the
//       estimator into an illegal state (ĉ1 > ĉ2 or d̂ < ĉ2).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "rstp/channel/synthesized.h"
#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"
#include "rstp/core/drift.h"
#include "rstp/core/verify.h"
#include "rstp/est/runner.h"
#include "rstp/obs/diff.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/campaign.h"
#include "rstp/sim/adversary.h"
#include "rstp/sim/fuzz.h"
#include "support/gen.h"

namespace rstp::core {
namespace {

using protocols::ProtocolKind;
using test::random_environment;
using test::random_params;

class RandomizedRuns : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedRuns, SafetyLivenessAndModelConformance) {
  Rng rng{GetParam()};
  const TimingParams params = random_params(rng);
  const std::uint32_t k = static_cast<std::uint32_t>(rng.next_in(2, 12));
  const std::size_t n = static_cast<std::size_t>(rng.next_in(0, 80));
  const Environment env = random_environment(rng);

  protocols::ProtocolConfig cfg;
  cfg.params = params;
  cfg.k = k;
  cfg.input = make_random_input(n, rng.next_u64());

  for (const auto kind : protocols::kPaperProtocolKinds) {
    SCOPED_TRACE(std::string(protocols::to_string(kind)) + " seed=" +
                 std::to_string(GetParam()));
    const ProtocolRun run = run_protocol(kind, cfg, env);
    EXPECT_TRUE(run.result.quiescent);     // P2: terminates
    EXPECT_TRUE(run.output_correct);       // P2: Y == X
    const VerifyResult verdict = verify_trace(run.result.trace, params, cfg.input);
    EXPECT_TRUE(verdict.ok()) << verdict;  // P1 + P3
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedRuns, ::testing::Range<std::uint64_t>(0, 25));

TEST(Determinism, IdenticalSeedsGiveIdenticalTraces) {
  protocols::ProtocolConfig cfg;
  cfg.params = TimingParams::make(1, 3, 7);
  cfg.k = 4;
  cfg.input = make_random_input(30, 1);
  const Environment env = Environment::randomized(1234);
  const ProtocolRun a = run_protocol(ProtocolKind::Gamma, cfg, env);
  const ProtocolRun b = run_protocol(ProtocolKind::Gamma, cfg, env);
  ASSERT_EQ(a.result.trace.size(), b.result.trace.size());
  EXPECT_EQ(a.result.trace.events(), b.result.trace.events());
}

TEST(Determinism, DifferentSeedsDiverge) {
  protocols::ProtocolConfig cfg;
  cfg.params = TimingParams::make(1, 3, 7);
  cfg.k = 4;
  cfg.input = make_random_input(30, 1);
  const ProtocolRun a = run_protocol(ProtocolKind::Gamma, cfg, Environment::randomized(1));
  const ProtocolRun b = run_protocol(ProtocolKind::Gamma, cfg, Environment::randomized(2));
  EXPECT_NE(a.result.trace.events(), b.result.trace.events());
}

TEST(VerifierAsOracle, RejectsTamperedTraces) {
  // Take a genuinely good trace and corrupt it in several distinct ways; the
  // verifier must notice each. This guards the guard.
  protocols::ProtocolConfig cfg;
  cfg.params = TimingParams::make(1, 2, 6);
  cfg.k = 4;
  cfg.input = make_random_input(20, 2);
  const ProtocolRun run = run_protocol(ProtocolKind::Beta, cfg, Environment::worst_case());
  ASSERT_TRUE(run.output_correct);
  const auto& events = run.result.trace.events();
  ASSERT_TRUE(verify_trace(run.result.trace, cfg.params, cfg.input).ok());

  // Corruption 1: flip one written bit.
  {
    ioa::TimedTrace tampered;
    bool flipped = false;
    for (auto e : events) {
      if (!flipped && e.action.kind == ioa::ActionKind::Write) {
        e.action.message ^= 1;
        flipped = true;
      }
      tampered.append(e);
    }
    ASSERT_TRUE(flipped);
    EXPECT_FALSE(verify_trace(tampered, cfg.params, cfg.input).ok());
  }
  // Corruption 2: delete one recv (packet never delivered).
  {
    ioa::TimedTrace tampered;
    bool skipped = false;
    for (const auto& e : events) {
      if (!skipped && e.action.kind == ioa::ActionKind::Recv) {
        skipped = true;
        continue;
      }
      tampered.append(e);
    }
    const VerifyResult verdict = verify_trace(tampered, cfg.params, cfg.input);
    EXPECT_FALSE(verdict.clean_of(ViolationKind::UndeliveredPacket));
  }
  // Corruption 3: retime a recv past its deadline.
  {
    ioa::TimedTrace tampered;
    for (const auto& e : events) {
      if (e.action.kind == ioa::ActionKind::Recv) {
        // Move every recv to the very end of the execution, far past d.
        continue;
      }
      tampered.append(e);
    }
    const Time late = run.result.end_time + Duration{1000};
    std::uint64_t seq = events.back().seq;
    for (const auto& e : events) {
      if (e.action.kind == ioa::ActionKind::Recv) {
        tampered.append({late, e.actor, e.action, ++seq});
      }
    }
    const VerifyResult verdict = verify_trace(tampered, cfg.params, cfg.input);
    EXPECT_FALSE(verdict.clean_of(ViolationKind::DeliveryTooLate));
  }
}

TEST(EffortProperty, MeasuredAlwaysInsideTheoremBand) {
  Rng rng{0xEFF0};
  for (int trial = 0; trial < 12; ++trial) {
    const TimingParams params = random_params(rng);
    const std::uint32_t k = static_cast<std::uint32_t>(rng.next_in(2, 16));
    const BoundsReport bounds = compute_bounds(params, k);
    SCOPED_TRACE([&] {
      std::ostringstream os;
      os << params << " k=" << k;
      return os.str();
    }());

    // Bounds assume block-aligned |X| (the paper's mod-B assumption).
    const auto beta = measure_effort(ProtocolKind::Beta, params, k,
                                     bounds.beta_bits_per_block * 30,
                                     Environment::worst_case(), rng.next_u64());
    ASSERT_TRUE(beta.output_correct);
    EXPECT_LE(beta.effort, bounds.beta_upper * (1 + 1e-9));

    const auto gamma = measure_effort(ProtocolKind::Gamma, params, k,
                                      bounds.gamma_bits_per_block * 30,
                                      Environment::worst_case(), rng.next_u64());
    ASSERT_TRUE(gamma.output_correct);
    EXPECT_LE(gamma.effort, bounds.gamma_upper * (1 + 1e-9));

    const auto alpha = measure_effort(ProtocolKind::Alpha, params, 2, 300,
                                      Environment::worst_case(), rng.next_u64());
    ASSERT_TRUE(alpha.output_correct);
    EXPECT_LE(alpha.effort, bounds.alpha_effort * (1 + 1e-9));
  }
}

TEST(PrefixProperty, HoldsAtEveryIntermediatePoint) {
  // Replay a trace event-by-event and check the prefix invariant after each
  // write — stronger than only checking the final output.
  protocols::ProtocolConfig cfg;
  cfg.params = TimingParams::make(2, 3, 9);
  cfg.k = 8;
  cfg.input = make_random_input(60, 3);
  for (const auto kind : protocols::kPaperProtocolKinds) {
    const ProtocolRun run = run_protocol(kind, cfg, Environment::randomized(5));
    std::size_t written = 0;
    for (const auto& e : run.result.trace.events()) {
      if (e.action.kind == ioa::ActionKind::Write) {
        ASSERT_LT(written, cfg.input.size()) << protocols::to_string(kind);
        EXPECT_EQ(e.action.message, cfg.input[written]) << protocols::to_string(kind);
        ++written;
      }
    }
    EXPECT_EQ(written, cfg.input.size()) << protocols::to_string(kind);
  }
}

TEST(Determinism, CampaignMetricsDiffToZeroAcrossWorkerCounts) {
  // P5 end to end through the diff layer: the same campaign run on 1 and on
  // 3 workers must produce series whose diff is empty. This is the exact
  // property the golden-baseline gate (rstp report --fail-on) relies on.
  // (Host timing cannot perturb a campaign: it is armed per session, through
  // SimConfig::host_timer, and HostTiming.DecoratedSessionsEqualUndecorated
  // pins that a timed session's result is unchanged.)
  const sim::Campaign campaign{sim::golden_campaign_spec()};
  const std::size_t input_bits = campaign.spec().input_bits;
  const auto first = sim::campaign_metrics_records(campaign.run(1), input_bits);
  const auto second = sim::campaign_metrics_records(campaign.run(3), input_bits);

  const obs::DiffReport report = obs::diff_metrics(first, second);
  EXPECT_EQ(report.matched, first.size());
  EXPECT_TRUE(report.cells.empty());
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.extra.empty());
  for (const obs::QuantityDelta& agg : report.aggregates) {
    EXPECT_FALSE(agg.changed()) << agg.name;
  }
}

TEST(SafetyUnderFaults, FaultFreeFuzzedSchedulesSatisfyTheProblem) {
  // P6, first half: the fuzzer's mutated schedules/timings stay inside
  // good(A) when no faults are injected, so every correct protocol must
  // come through with zero failures — and each corpus entry must satisfy
  // P1–P3 under the plain (fault-blind) verifier.
  for (const auto kind : protocols::kPaperProtocolKinds) {
    SCOPED_TRACE(protocols::to_string(kind));
    sim::FuzzSpec spec;
    spec.protocol = kind;
    spec.seed = 61;
    spec.budget = 48;
    const sim::FuzzResult result = sim::run_fuzz(spec);
    EXPECT_TRUE(result.ok()) << result.failures.size() << " failures, first: "
                             << (result.failures.empty() ? ""
                                                         : result.failures[0].result.failure);
    ASSERT_EQ(result.corpus.size(), result.corpus_results.size());
    for (const sim::FuzzCaseResult& r : result.corpus_results) {
      EXPECT_FALSE(r.crashed) << r.failure;
      EXPECT_TRUE(r.quiescent);          // P2: terminates
      EXPECT_TRUE(r.unexcused.empty());  // P1 + P3 (no faults => nothing excused)
      EXPECT_EQ(r.excused, 0u);
      EXPECT_EQ(r.fault_events, 0u);
    }
  }
}

TEST(SafetyUnderFaults, NoSafetyViolationWithoutAPrecedingFault) {
  // P6, second half: drive correct protocols through fault-injecting
  // channels. Wrong output (OutputNotPrefix) is allowed only when a fault
  // event precedes the offending write — an unexcused safety violation
  // would mean the protocol corrupted Y all by itself.
  Rng rng{4242};
  for (const auto kind : protocols::kPaperProtocolKinds) {
    for (int i = 0; i < 12; ++i) {
      sim::FuzzCase c;
      c.protocol = kind;
      c.params = test::random_params(rng);
      c.k = 4;
      c.input_bits = 16;
      c.input_seed = rng.next_u64();
      c.sched_seed_t = rng.next_u64();
      c.sched_seed_r = rng.next_u64();
      c.delay_seed = rng.next_u64();
      c.faults_enabled = true;
      c.fault_seed = rng.next_u64();
      c.rates.drop_pm = 60;
      c.rates.duplicate_pm = 60;
      c.rates.late_pm = 60;
      c.rates.corrupt_pm = 60;
      c.rates.corrupt_space = c.k;
      c.max_events = 20'000;
      SCOPED_TRACE(std::string(protocols::to_string(kind)) + " i=" + std::to_string(i));
      const sim::FuzzCaseResult r = sim::run_fuzz_case(c);
      ASSERT_FALSE(r.invalid);
      EXPECT_FALSE(r.failed) << r.failure;
      for (const Violation& v : r.unexcused) {
        EXPECT_NE(v.kind, ViolationKind::OutputNotPrefix)
            << "unexcused safety violation: " << v;
      }
    }
  }
}

/// A uniformly random *legal* genome for `params`: every table entry drawn
/// from exactly the interval the model allows.
channel::ScheduleGenome random_legal_genome(Rng& rng, const TimingParams& params) {
  channel::ScheduleGenome g;
  const auto fill = [&](std::vector<Duration>& table, std::int64_t lo, std::int64_t hi) {
    table.clear();
    const auto len = static_cast<std::size_t>(rng.next_in(1, 6));
    for (std::size_t i = 0; i < len; ++i) table.push_back(Duration{rng.next_in(lo, hi)});
  };
  fill(g.delays, 0, params.d.ticks());
  g.order_keys.clear();
  const auto keys = static_cast<std::size_t>(rng.next_in(1, 6));
  for (std::size_t i = 0; i < keys; ++i) g.order_keys.push_back(rng.next_below(64));
  g.t_first = Duration{rng.next_in(0, params.c2.ticks())};
  g.r_first = Duration{rng.next_in(0, params.c2.ticks())};
  fill(g.t_gaps, params.c1.ticks(), params.c2.ticks());
  fill(g.r_gaps, params.c1.ticks(), params.c2.ticks());
  return g;
}

TEST(SynthesizedSchedules, RandomLegalGenomesPassTheCheckerAndRunInModel) {
  // P7, first half: any genome whose entries respect the model's intervals
  // is (a) accepted by check_genome and (b) an environment the paper's
  // protocols handle — correct, quiescent runs, exactly like any other
  // point of good(A).
  Rng rng{9091};
  for (const auto kind : protocols::kPaperProtocolKinds) {
    for (int i = 0; i < 8; ++i) {
      SCOPED_TRACE(std::string(protocols::to_string(kind)) + " i=" + std::to_string(i));
      const TimingParams params = random_params(rng);
      const channel::ScheduleGenome genome = random_legal_genome(rng, params);
      const channel::GenomeCheck check = channel::check_genome(genome, params);
      ASSERT_TRUE(check.ok()) << check.defects.size() << " defects, first: "
                              << (check.defects.empty() ? "" : check.defects[0].reason);

      sim::AdversaryCell cell;
      cell.protocol = kind;
      cell.params = params;
      cell.k = static_cast<std::uint32_t>(rng.next_in(2, 8));
      cell.input_bits = static_cast<std::uint32_t>(rng.next_in(1, 24));
      const sim::GenomeEval eval = sim::evaluate_genome(cell, rng.next_u64(), genome);
      EXPECT_TRUE(eval.valid);
      EXPECT_TRUE(eval.correct);    // P1 + P2: Y == X
      EXPECT_TRUE(eval.quiescent);  // P2: terminates
    }
  }
}

TEST(SynthesizedSchedules, IllegalGenomesAreRejectedWithStructuredDefects) {
  // P7, second half: one mutation past each boundary, each reported against
  // the right field and slot — and every illegal genome is collectively
  // rejected by the throwing wrapper and the policy constructor.
  const TimingParams params = TimingParams::make(2, 3, 9);
  const channel::ScheduleGenome legal{{Duration{4}}, {0}, Duration{1}, Duration{2},
                                      {Duration{2}}, {Duration{3}}};
  ASSERT_TRUE(channel::check_genome(legal, params).ok());

  struct Break {
    const char* field;
    std::size_t index;
    channel::ScheduleGenome genome;
  };
  std::vector<Break> breaks;
  {
    channel::ScheduleGenome g = legal;
    g.delays = {Duration{0}, Duration{10}};  // d + 1, slot 1
    breaks.push_back({"delays", 1, g});
  }
  {
    channel::ScheduleGenome g = legal;
    g.delays = {Duration{-1}};
    breaks.push_back({"delays", 0, g});
  }
  {
    channel::ScheduleGenome g = legal;
    g.t_gaps = {Duration{2}, Duration{1}};  // below c1, slot 1
    breaks.push_back({"t_gaps", 1, g});
  }
  {
    channel::ScheduleGenome g = legal;
    g.r_gaps = {Duration{4}};  // above c2
    breaks.push_back({"r_gaps", 0, g});
  }
  {
    channel::ScheduleGenome g = legal;
    g.t_first = Duration{4};  // above c2
    breaks.push_back({"t_first", 0, g});
  }
  {
    channel::ScheduleGenome g = legal;
    g.order_keys.clear();  // empty table
    breaks.push_back({"order_keys", 0, g});
  }

  for (const Break& b : breaks) {
    SCOPED_TRACE(b.field);
    const channel::GenomeCheck check = channel::check_genome(b.genome, params);
    ASSERT_FALSE(check.ok());
    bool named = false;
    for (const channel::GenomeDefect& defect : check.defects) {
      if (defect.field == b.field && defect.index == b.index) named = true;
    }
    EXPECT_TRUE(named) << "no defect names " << b.field << "[" << b.index << "]";
    EXPECT_THROW(channel::validate_genome(b.genome, params), ModelError);
    EXPECT_THROW(channel::SynthesizedPolicy(b.genome, params), ContractViolation);
  }
}

TEST(EstimatorBracketing, StationaryInModelRunsBracketTheRealizedChannel) {
  // P8, first half. The estimator's gap hook sees exactly the samples the
  // gap histograms record (same simulator guard), so the histograms are the
  // realized truth to bracket against: ĉ1 must never exceed the realized
  // minimum gap, ĉ2 must cover a pinned-constant gap, and d̂ must cover d
  // whenever every delivery takes exactly d. Every estimator-driven run must
  // also come through correct, quiescent, and verifier-clean.
  Rng rng{0xE571};
  for (int trial = 0; trial < 10; ++trial) {
    const TimingParams params = random_params(rng);
    const std::uint32_t k = static_cast<std::uint32_t>(rng.next_in(2, 8));
    const std::size_t n = static_cast<std::size_t>(rng.next_in(8, 64));
    const Environment env = random_environment(rng);

    protocols::ProtocolConfig cfg;
    cfg.params = params;
    cfg.k = k;
    cfg.input = make_random_input(n, rng.next_u64());

    for (const auto kind : {ProtocolKind::Beta, ProtocolKind::Gamma}) {
      SCOPED_TRACE(std::string(protocols::to_string(kind)) + " trial=" +
                   std::to_string(trial));
      const est::EstimatedRun er =
          est::run_estimated(kind, cfg, env, DriftSpec{}, true);
      EXPECT_TRUE(er.run.output_correct);
      EXPECT_TRUE(er.run.result.quiescent);
      const VerifyResult verdict = verify_trace(er.run.result.trace, params, cfg.input);
      EXPECT_TRUE(verdict.ok()) << verdict;

      // Legal state after any warm-up: 1 <= ĉ1 <= ĉ2 <= d̂.
      ASSERT_GE(er.gauges.c1_hat, 1);
      ASSERT_LE(er.gauges.c1_hat, er.gauges.c2_hat);
      ASSERT_LE(er.gauges.c2_hat, er.gauges.d_hat);

      const obs::Histogram& tg = er.run.result.metrics.transmitter_gap;
      const obs::Histogram& rg = er.run.result.metrics.receiver_gap;
      ASSERT_GT(tg.count() + rg.count(), 0u);
      std::int64_t realized_min = std::numeric_limits<std::int64_t>::max();
      std::int64_t realized_max = 0;
      for (const obs::Histogram* h : {&tg, &rg}) {
        if (h->count() == 0) continue;
        realized_min = std::min(realized_min, h->min());
        realized_max = std::max(realized_max, h->max());
      }
      // ĉ1 is a margin-shrunk running minimum: never above the realization.
      EXPECT_LE(er.gauges.c1_hat, realized_min);
      if (realized_min == params.c1.ticks()) {
        EXPECT_LE(er.gauges.c1_hat, params.c1.ticks());  // brackets the truth
      }
      if (realized_min == realized_max) {
        // Constant realized gaps: the EWMA sits on the value, so ĉ2 covers it.
        EXPECT_GE(er.gauges.c2_hat, realized_max);
      }
      if (env.delay == Environment::Delay::Max && er.gauges.delay_samples > 0) {
        EXPECT_GE(er.gauges.d_hat, params.d.ticks());  // d̂ covers the truth
      }
    }
  }
}

TEST(EstimatorBracketing, AdversarialDriftNeverDrivesTheEstimatorIllegal) {
  // P8, second half: scripted drift (including zero-delay segments and
  // clamped-out-of-envelope values) may cost effort, but it can never push
  // the estimates into an illegal state, and every drifting run must still
  // finish correctly inside good(A) for the envelope.
  Rng rng{0xD21F};
  for (int trial = 0; trial < 10; ++trial) {
    const TimingParams params = random_params(rng);

    DriftSpec drift;
    Time start = Time::zero();
    const auto segments = static_cast<std::size_t>(rng.next_in(1, 4));
    for (std::size_t s = 0; s < segments; ++s) {
      DriftSpec::Segment seg;
      seg.start = start;
      seg.d_eff = Duration{rng.next_in(0, 30)};  // may clamp at both ends
      if (rng.next_below(2) == 0) seg.c2_eff = Duration{rng.next_in(1, 10)};
      drift.segments.push_back(seg);
      start = start + Duration{rng.next_in(1, 200)};
    }
    drift.validate();

    protocols::ProtocolConfig cfg;
    cfg.params = params;
    cfg.k = static_cast<std::uint32_t>(rng.next_in(2, 8));
    cfg.input = make_random_input(static_cast<std::size_t>(rng.next_in(8, 48)),
                                  rng.next_u64());
    const Environment env = random_environment(rng);

    for (const auto kind : {ProtocolKind::Beta, ProtocolKind::Gamma}) {
      SCOPED_TRACE(std::string(protocols::to_string(kind)) + " trial=" +
                   std::to_string(trial) + " drift=" + drift.to_string());
      const est::EstimatedRun er = est::run_estimated(kind, cfg, env, drift, true);
      EXPECT_TRUE(er.run.output_correct);
      EXPECT_TRUE(er.run.result.quiescent);
      // The illegal states P8 rules out: ĉ1 > ĉ2 or d̂ < ĉ2.
      ASSERT_GE(er.gauges.c1_hat, 1);
      ASSERT_LE(er.gauges.c1_hat, er.gauges.c2_hat);
      ASSERT_LE(er.gauges.c2_hat, er.gauges.d_hat);
      // Clamping keeps drifting executions inside the envelope's good(A).
      const VerifyResult verdict = verify_trace(er.run.result.trace, params, cfg.input);
      EXPECT_TRUE(verdict.ok()) << verdict;
    }
  }
}

}  // namespace
}  // namespace rstp::core
