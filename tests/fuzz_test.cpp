// Mechanics of the fault/fuzz subsystem (label: fuzz):
//   * SeededFaultInjector: deterministic, rate-respecting, pin-obeying.
//   * Channel fault plumbing: each fault kind produces the right deliveries
//     and the right structured log entries.
//   * verify_with_faults: per-kind excusal, never-excused kinds.
//   * Case/repro serialization round-trips and rejects malformed input.
//   * run_fuzz: bitwise determinism across runs and --jobs values; the
//     shared generational loop's stall-driven mutation rate.
// End-to-end failure discovery lives in fuzz_repro_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "rstp/channel/channel.h"
#include "rstp/channel/policies.h"
#include "rstp/core/verify.h"
#include "rstp/fault/fault.h"
#include "rstp/sim/fuzz.h"
#include "support/gen.h"

namespace rstp {
namespace {

using channel::Channel;
using fault::FaultDecision;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultRates;
using fault::PinnedFault;
using fault::SeededFaultInjector;
using ioa::Packet;

[[nodiscard]] Time at_tick(std::int64_t t) { return Time::zero() + Duration{t}; }

TEST(SeededFaultInjector, DecisionDependsOnlyOnSeedAndSendSeq) {
  FaultRates rates;
  rates.drop_pm = 100;
  rates.duplicate_pm = 100;
  rates.late_pm = 100;
  rates.corrupt_pm = 100;
  SeededFaultInjector a{42, rates};
  SeededFaultInjector b{42, rates};
  // Query b out of order and repeatedly: decisions must still agree with a's
  // in-order stream — the contract run_fuzz_case's reproducibility rests on.
  for (const std::uint64_t seq : {5u, 0u, 17u, 5u, 3u, 999u, 0u}) {
    const FaultDecision da = a.decide(Packet::to_receiver(1), at_tick(0), at_tick(6), seq);
    const FaultDecision db = b.decide(Packet::to_receiver(1), at_tick(0), at_tick(6), seq);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicates, db.duplicates);
    EXPECT_EQ(da.late_by, db.late_by);
    EXPECT_EQ(da.corrupt_payload, db.corrupt_payload);
  }
}

TEST(SeededFaultInjector, ZeroRatesAreBenignAndRatesRoughlyHold) {
  SeededFaultInjector benign{1, FaultRates{}};
  for (std::uint64_t seq = 0; seq < 200; ++seq) {
    EXPECT_TRUE(benign.decide(Packet::to_receiver(0), at_tick(0), at_tick(6), seq).benign());
  }
  FaultRates rates;
  rates.drop_pm = 250;  // expect ~1/4 of sends dropped
  SeededFaultInjector quarter{7, rates};
  int drops = 0;
  for (std::uint64_t seq = 0; seq < 4000; ++seq) {
    const FaultDecision d = quarter.decide(Packet::to_receiver(0), at_tick(0), at_tick(6), seq);
    if (d.drop) ++drops;
    EXPECT_EQ(d.duplicates, 0u);
    EXPECT_EQ(d.late_by.ticks(), 0);
  }
  EXPECT_GT(drops, 800);
  EXPECT_LT(drops, 1200);
}

TEST(SeededFaultInjector, PinsOverrideRatesAndCorruptStaysInAlphabet) {
  FaultRates rates;
  rates.corrupt_space = 4;
  const std::vector<PinnedFault> pins = {{3, FaultKind::Drop, 0},
                                         {5, FaultKind::Duplicate, 2},
                                         {8, FaultKind::Late, 3},
                                         {9, FaultKind::Corrupt, 2}};
  SeededFaultInjector inj{1, rates, pins};
  EXPECT_TRUE(inj.decide(Packet::to_receiver(0), at_tick(0), at_tick(6), 0).benign());
  EXPECT_TRUE(inj.decide(Packet::to_receiver(0), at_tick(0), at_tick(6), 3).drop);
  EXPECT_EQ(inj.decide(Packet::to_receiver(0), at_tick(0), at_tick(6), 5).duplicates, 2u);
  EXPECT_EQ(inj.decide(Packet::to_receiver(0), at_tick(0), at_tick(6), 8).late_by, Duration{3});
  // Pinned corrupt with arg == current payload must still change the value.
  const FaultDecision corrupt =
      inj.decide(Packet::to_receiver(2), at_tick(0), at_tick(6), 9);
  ASSERT_TRUE(corrupt.corrupt_payload.has_value());
  EXPECT_NE(*corrupt.corrupt_payload, 2u);
  EXPECT_LT(*corrupt.corrupt_payload, 4u);
}

TEST(FaultRates, ValidationRejectsIllegalShapes) {
  FaultRates over;
  over.drop_pm = 600;
  over.duplicate_pm = 600;  // sum > 1000
  EXPECT_THROW(over.validate(), ContractViolation);
  FaultRates dup;
  dup.max_duplicates = 0;
  EXPECT_THROW(dup.validate(), ContractViolation);
  FaultRates late;
  late.max_late = Duration{0};
  EXPECT_THROW(late.validate(), ContractViolation);
  FaultRates space;
  space.corrupt_space = 1;
  EXPECT_THROW(space.validate(), ContractViolation);
  EXPECT_NO_THROW(FaultRates{}.validate());
}

// ---------------------------------------------------------------------------
// Channel plumbing, one fault kind at a time (pins + fixed delay keep every
// delivery instant exact).

TEST(ChannelFaults, DropNeverEntersFlightAndIsLogged) {
  Channel chan{Duration{6}, channel::make_fixed_delay(Duration{2})};
  SeededFaultInjector inj{1, FaultRates{}, {{0, FaultKind::Drop, 0}}};
  chan.set_fault_injector(&inj);
  chan.send(Packet::to_receiver(3), at_tick(0));
  EXPECT_TRUE(chan.empty());
  ASSERT_EQ(chan.fault_log().size(), 1u);
  const FaultEvent& e = chan.fault_log()[0];
  EXPECT_EQ(e.kind, FaultKind::Drop);
  EXPECT_EQ(e.send_seq, 0u);
  EXPECT_EQ(e.at, at_tick(0));
  EXPECT_EQ(e.original, Packet::to_receiver(3));
}

TEST(ChannelFaults, DuplicateDeliversExtraCopies) {
  Channel chan{Duration{6}, channel::make_fixed_delay(Duration{2})};
  SeededFaultInjector inj{1, FaultRates{}, {{0, FaultKind::Duplicate, 2}}};
  chan.set_fault_injector(&inj);
  chan.send(Packet::to_receiver(1), at_tick(0));
  EXPECT_EQ(chan.in_flight(), 3u);  // original + 2 copies
  EXPECT_EQ(chan.fault_log().size(), 2u);  // one event per extra copy
  const auto& due = chan.collect_due(at_tick(2));
  ASSERT_EQ(due.size(), 3u);
  for (const auto& flight : due) EXPECT_EQ(flight.packet, Packet::to_receiver(1));
}

TEST(ChannelFaults, LateDeliveryOvershootsTheDeadline) {
  Channel chan{Duration{6}, channel::make_fixed_delay(Duration{2})};
  SeededFaultInjector inj{1, FaultRates{}, {{0, FaultKind::Late, 3}}};
  chan.set_fault_injector(&inj);
  chan.send(Packet::to_receiver(1), at_tick(10));
  EXPECT_TRUE(chan.collect_due(at_tick(16)).empty());  // past d, still held
  const auto& due = chan.collect_due(at_tick(19));     // deadline + 3
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].deliver_at, at_tick(19));
  ASSERT_EQ(chan.fault_log().size(), 1u);
  EXPECT_EQ(chan.fault_log()[0].late_by, Duration{3});
}

TEST(ChannelFaults, CorruptMutatesPayloadBeforeThePolicy) {
  Channel chan{Duration{6}, channel::make_fixed_delay(Duration{2})};
  SeededFaultInjector inj{1, FaultRates{}, {{0, FaultKind::Corrupt, 2}}};
  chan.set_fault_injector(&inj);
  chan.send(Packet::to_receiver(0), at_tick(0));
  const auto& due = chan.collect_due(at_tick(2));
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].packet, Packet::to_receiver(2));
  ASSERT_EQ(chan.fault_log().size(), 1u);
  EXPECT_EQ(chan.fault_log()[0].original, Packet::to_receiver(0));
  EXPECT_EQ(chan.fault_log()[0].injected, Packet::to_receiver(2));
}

TEST(ChannelFaults, NoInjectorMeansCleanLogAndInModelBehavior) {
  Channel chan{Duration{6}, channel::make_fixed_delay(Duration{2})};
  chan.send(Packet::to_receiver(1), at_tick(0));
  EXPECT_TRUE(chan.fault_log().empty());
  EXPECT_EQ(chan.collect_due(at_tick(2)).size(), 1u);
}

// ---------------------------------------------------------------------------
// Fault-aware verification.

/// Feeds `trace` to a TraceChecker and excuses its verdict against `faults`.
[[nodiscard]] core::FaultVerifyReport checked_with_faults(const ioa::TimedTrace& trace,
                                                        const core::TimingParams& params,
                                                        std::span<const ioa::Bit> input,
                                                        std::span<const FaultEvent> faults,
                                                        const core::VerifyOptions& options) {
  core::TraceChecker checker{params, input, options};
  for (const ioa::TimedEvent& e : trace.events()) checker.add(e);
  return core::verify_with_faults(checker, faults);
}

/// A minimal trace: send at t_send, recv at t_recv (same payload).
[[nodiscard]] ioa::TimedTrace send_recv_trace(std::int64_t t_send, std::int64_t t_recv) {
  ioa::TimedTrace trace;
  trace.append({at_tick(t_send), ioa::Actor::Transmitter,
                ioa::Action::send(Packet::to_receiver(1)), 0});
  trace.append({at_tick(t_recv), ioa::Actor::Channel,
                ioa::Action::recv(Packet::to_receiver(1)), 1});
  return trace;
}

TEST(VerifyWithFaults, LateFaultExcusesLateDelivery) {
  const auto params = core::TimingParams::make(1, 2, 6);
  const ioa::TimedTrace trace = send_recv_trace(0, 9);  // delay 9 > d=6
  core::VerifyOptions options;
  options.require_complete = false;
  const std::vector<ioa::Bit> input;

  const auto blind = checked_with_faults(trace, params, input, {}, options);
  EXPECT_FALSE(blind.ok());  // no faults logged: the violation stands

  const FaultEvent late{FaultKind::Late, 0, at_tick(0), Packet::to_receiver(1),
                        Packet::to_receiver(1), Duration{3}};
  const std::vector<FaultEvent> faults = {late};
  const auto excused = checked_with_faults(trace, params, input, faults, options);
  EXPECT_TRUE(excused.ok());
  EXPECT_EQ(excused.excused, 1u);
  EXPECT_FALSE(excused.raw.ok());  // the raw verdict still records it
}

TEST(VerifyWithFaults, FaultAfterTheViolationDoesNotExcuseIt) {
  const auto params = core::TimingParams::make(1, 2, 6);
  const ioa::TimedTrace trace = send_recv_trace(0, 9);
  core::VerifyOptions options;
  options.require_complete = false;
  const FaultEvent later{FaultKind::Late, 7, at_tick(30), Packet::to_receiver(1),
                         Packet::to_receiver(1), Duration{3}};
  const std::vector<FaultEvent> faults = {later};
  const auto report = checked_with_faults(trace, params, {}, faults, options);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.excused, 0u);
}

TEST(VerifyWithFaults, StepGapViolationsAreNeverExcused) {
  // Two transmitter steps 1 tick apart with c1=2: a scheduler-law violation
  // no channel fault can cause — it must survive any fault log.
  const auto params = core::TimingParams::make(2, 4, 8);
  ioa::TimedTrace trace;
  trace.append({at_tick(0), ioa::Actor::Transmitter, protocols::wait_t_action(), 0});
  trace.append({at_tick(1), ioa::Actor::Transmitter, protocols::wait_t_action(), 1});
  core::VerifyOptions options;
  options.require_complete = false;
  const FaultEvent early{FaultKind::Drop, 0, at_tick(0), Packet::to_receiver(1),
                         Packet::to_receiver(1), Duration{0}};
  const std::vector<FaultEvent> faults = {early};
  const auto report = checked_with_faults(trace, params, {}, faults, options);
  ASSERT_EQ(report.unexcused.size(), 1u);
  EXPECT_EQ(report.unexcused[0].kind, core::ViolationKind::StepGapTooSmall);
}

TEST(VerifyWithFaults, DropExcusesTheMatchingCascade) {
  // A dropped send's retransmission recv greedily matches the *dropped* send
  // and books an over-d delay; the fault log must excuse it (the regression
  // the first fault-injected fuzz campaign caught).
  const auto params = core::TimingParams::make(1, 6, 6);
  ioa::TimedTrace trace;
  trace.append({at_tick(0), ioa::Actor::Transmitter,
                ioa::Action::send(Packet::to_receiver(1)), 0});  // dropped
  trace.append({at_tick(5), ioa::Actor::Transmitter,
                ioa::Action::send(Packet::to_receiver(1)), 1});  // retransmit
  trace.append({at_tick(8), ioa::Actor::Channel,
                ioa::Action::recv(Packet::to_receiver(1)), 2});  // matches seq 0: delay 8 > d
  core::VerifyOptions options;
  options.require_complete = false;
  options.require_drained = false;
  const FaultEvent drop{FaultKind::Drop, 0, at_tick(0), Packet::to_receiver(1),
                        Packet::to_receiver(1), Duration{0}};
  const std::vector<FaultEvent> faults = {drop};
  const auto report = checked_with_faults(trace, params, {}, faults, options);
  EXPECT_TRUE(report.ok()) << report;
  EXPECT_FALSE(report.raw.ok());
}

// ---------------------------------------------------------------------------
// Serialization.

TEST(FuzzSerialization, CaseRoundTripsThroughText) {
  sim::FuzzCase c;
  c.protocol = protocols::ProtocolKind::Gamma;
  c.params = core::TimingParams::make(2, 3, 9);
  c.k = 6;
  c.input_bits = 17;
  c.input_seed = 111;
  c.sched_seed_t = 222;
  c.sched_seed_r = 333;
  c.delay_seed = 444;
  c.wait_override = 2;
  c.faults_enabled = true;
  c.fault_seed = 555;
  c.rates.drop_pm = 10;
  c.rates.corrupt_pm = 20;
  c.rates.corrupt_space = 6;
  c.pins = {{4, fault::FaultKind::Late, 2}, {9, fault::FaultKind::Drop, 0}};

  std::stringstream buffer;
  sim::write_fuzz_case(buffer, c);
  const sim::FuzzCase parsed = sim::parse_fuzz_case(buffer);
  EXPECT_EQ(parsed, c);
}

TEST(FuzzSerialization, ReproRoundTripsAndIgnoresCommentsAndBlanks) {
  sim::FuzzCase c;
  c.wait_override = 1;
  const sim::FuzzCaseResult result = sim::run_fuzz_case(c);
  std::stringstream buffer;
  sim::write_fuzz_repro(buffer, c, result);

  // Sprinkle comments/blank lines the way a hand-edited file would.
  std::string text = "# golden repro\n\n" + buffer.str() + "\n# trailing comment\n";
  std::istringstream annotated{text};
  const sim::FuzzRepro repro = sim::parse_fuzz_repro(annotated);
  EXPECT_EQ(repro.fuzz_case, c);
  EXPECT_EQ(repro.failed, result.failed);
  EXPECT_EQ(repro.output_hash, result.output_hash);
  EXPECT_EQ(repro.coverage_hash, result.coverage_hash);
}

TEST(FuzzSerialization, MalformedDocumentsAreModelErrors) {
  const auto parse = [](std::string text) {
    std::istringstream in{std::move(text)};
    return sim::parse_fuzz_case(in);
  };
  EXPECT_THROW(parse(""), ModelError);
  EXPECT_THROW(parse("wrong-header-v0\nend\n"), ModelError);
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nk 4\n"), ModelError);  // missing end
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nmystery 1\nend\n"), ModelError);
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nk banana\nend\n"), ModelError);
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nparams 3 2 9\nend\n"), ModelError);
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nprotocol omega\nend\n"), ModelError);
  // Numbers are whole tokens in range, and no token may be left over: these
  // once wrapped to ~4.3e9 or were silently accepted.
  EXPECT_THROW(parse("rstp-fuzz-case-v1\ninput_bits -32\nend\n"), ModelError);
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nk -6\nend\n"), ModelError);
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nk 4 junk\nend\n"), ModelError);
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nmax_events 200000 7\nend\n"), ModelError);
  EXPECT_THROW(parse("rstp-fuzz-case-v1\ninput_seed 18446744073709551616\nend\n"), ModelError);
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nk 4x\nend\n"), ModelError);
  // The cell checks every artifact kind shares.
  EXPECT_THROW(parse("rstp-fuzz-case-v1\ninput_bits 0\nend\n"), ModelError);
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nk 1\nend\n"), ModelError);
  // A delay whose step count ceil(d/c1) does not fit 32 bits.
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nparams 1 1 4294967296\nend\n"), ModelError);
  EXPECT_NO_THROW(parse("rstp-fuzz-case-v1\nparams 2 2 8589934590\nend\n"));
  // Per-mille rates whose 32-bit sum would wrap back under 1000.
  EXPECT_THROW(parse("rstp-fuzz-case-v1\nrates 4294967295 2 0 0 2 4 4\nend\n"), ModelError);

  const auto parse_repro = [](std::string text) {
    std::istringstream in{std::move(text)};
    return sim::parse_fuzz_repro(in);
  };
  EXPECT_THROW(parse_repro("rstp-fuzz-repro-v1\nexpect_events -1\nend\n"), ModelError);
  EXPECT_THROW(parse_repro("rstp-fuzz-repro-v1\nexpect_kinds 1 A B\nend\n"), ModelError);
  EXPECT_THROW(parse_repro("rstp-fuzz-repro-v1\nexpect_kinds 2 A\nend\n"), ModelError);

  // The error names the offending line by number and text.
  try {
    (void)parse("rstp-fuzz-case-v1\n# comment\nk -6\nend\n");
    FAIL() << "negative k parsed";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3 'k -6'"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Campaign determinism.

TEST(RunFuzz, BitwiseDeterministicAcrossRunsAndJobs) {
  sim::FuzzSpec spec;
  spec.protocol = protocols::ProtocolKind::Beta;
  spec.seed = 99;
  spec.budget = 40;
  spec.faults_enabled = true;

  spec.jobs = 1;
  const sim::FuzzResult serial = sim::run_fuzz(spec);
  const sim::FuzzResult again = sim::run_fuzz(spec);
  spec.jobs = 3;
  const sim::FuzzResult parallel = sim::run_fuzz(spec);
  // More workers than a generation has distinct parents: catches any
  // jobs-dependent choice of generation size or fold order.
  spec.jobs = 8;
  const sim::FuzzResult wide = sim::run_fuzz(spec);

  for (const sim::FuzzResult* r : {&again, &parallel, &wide}) {
    EXPECT_EQ(r->executed, serial.executed);
    EXPECT_EQ(r->coverage, serial.coverage);
    EXPECT_EQ(r->coverage_hash, serial.coverage_hash);
    EXPECT_EQ(r->corpus, serial.corpus);
    ASSERT_EQ(r->failures.size(), serial.failures.size());
    for (std::size_t i = 0; i < serial.failures.size(); ++i) {
      EXPECT_EQ(r->failures[i].original, serial.failures[i].original);
      EXPECT_EQ(r->failures[i].minimized, serial.failures[i].minimized);
    }
  }
}

TEST(RunFuzz, ABudgetPastTheClockRangeIsNoCutoff) {
  // Budgets of 2^63 - 1 and 2^64 - 1 ms once overflowed their conversion to
  // a chrono duration and stopped the run after its first generation.
  sim::FuzzSpec spec;
  spec.protocol = protocols::ProtocolKind::Alpha;
  spec.budget = 64;
  const sim::FuzzResult unlimited = sim::run_fuzz(spec);
  ASSERT_EQ(unlimited.executed, 64u);
  for (const std::uint64_t ms : {std::uint64_t{std::numeric_limits<std::int64_t>::max()},
                                 std::numeric_limits<std::uint64_t>::max()}) {
    spec.time_budget_ms = ms;
    const sim::FuzzResult result = sim::run_fuzz(spec);
    EXPECT_EQ(result.executed, unlimited.executed) << ms;
    EXPECT_EQ(result.coverage_hash, unlimited.coverage_hash) << ms;
  }
}

TEST(RunFuzz, CorpusSeedsAreExecutedFirst) {
  sim::FuzzCase seed_case;
  seed_case.protocol = protocols::ProtocolKind::Beta;
  seed_case.input_bits = 5;
  sim::FuzzSpec spec;
  spec.protocol = protocols::ProtocolKind::Beta;
  spec.budget = 5;  // 4 base cases + the seed, nothing else
  spec.corpus_seeds = {seed_case};
  const sim::FuzzResult result = sim::run_fuzz(spec);
  EXPECT_EQ(result.executed, 5u);
  EXPECT_TRUE(result.ok());
}

TEST(RunGenerations, StalledCoverageRaisesTheMutationRateDeterministically) {
  // Self-tuning pin on the one search loop the fuzzer and the adversary
  // synthesizer share: a toy genome whose fingerprint space has only 8
  // values saturates within a few generations, and once generations stop
  // gaining fingerprints the breeding draw must widen — base 3, +1 per
  // consecutive zero-gain generation, capped at +5 — purely as a function of
  // the fold sequence, so identical across jobs.
  struct ToyResult {
    std::vector<std::uint64_t> fingerprints;
  };
  const auto collect = [](unsigned jobs) {
    std::vector<sim::GenerationTally> tallies;
    (void)sim::run_generations(
        sim::GenerationPlan{.seed = 7, .budget = 64, .generation_size = 4, .jobs = jobs},
        std::vector<std::uint64_t>{0},
        [](std::uint64_t genome) { return ToyResult{{genome % 8}}; },
        [](std::uint64_t, const ToyResult&, bool) {},
        [&tallies](const sim::GenerationTally& tally) {
          tallies.push_back(tally);
          return false;
        },
        [](Rng& rng, std::size_t, std::uint64_t rate) { return rng.next_below(64 * rate); });
    return tallies;
  };

  const std::vector<sim::GenerationTally> serial = collect(1);
  ASSERT_FALSE(serial.empty());
  std::uint64_t stall = 0;
  std::uint64_t widest = 0;
  for (std::size_t g = 0; g < serial.size(); ++g) {
    if (serial[g].coverage_gain == 0) {
      ++stall;
    } else {
      stall = 0;
    }
    EXPECT_EQ(serial[g].mutation_rate, 3 + std::min<std::uint64_t>(stall, 5))
        << "generation " << g;
    widest = std::max(widest, serial[g].mutation_rate);
  }
  // The pin itself: the space is small enough that the search *does* stall,
  // so the rate demonstrably rises above the base.
  EXPECT_GT(widest, 3u);

  const std::vector<sim::GenerationTally> parallel = collect(3);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t g = 0; g < serial.size(); ++g) {
    EXPECT_EQ(parallel[g].coverage, serial[g].coverage) << "generation " << g;
    EXPECT_EQ(parallel[g].coverage_gain, serial[g].coverage_gain) << "generation " << g;
    EXPECT_EQ(parallel[g].mutation_rate, serial[g].mutation_rate) << "generation " << g;
  }
}

TEST(RunFuzz, InvalidGenomesAreSkippedNotFailed) {
  // windowed-gamma requires W | k; k=5 violates the config contract. The
  // fuzzer must classify it as invalid (skip), not as a protocol failure.
  sim::FuzzCase c;
  c.protocol = protocols::ProtocolKind::WindowedGamma;
  c.k = 5;
  const sim::FuzzCaseResult r = sim::run_fuzz_case(c);
  EXPECT_TRUE(r.invalid);
  EXPECT_FALSE(r.failed);
}

}  // namespace
}  // namespace rstp
