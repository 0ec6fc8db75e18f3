// Tests for the good(A) trace verifier — including that it REJECTS
// deliberately corrupted traces (the verifier is the oracle for all the
// property tests, so its own failure modes need direct coverage) — and for
// its online use: a TraceChecker armed on a run must reach exactly the
// verdict verify_trace reaches on the run's recorded trace.
#include "rstp/core/verify.h"

#include <gtest/gtest.h>

#include <tuple>

#include "rstp/channel/channel.h"
#include "rstp/channel/policies.h"
#include "rstp/common/check.h"
#include "rstp/core/effort.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/scheduler.h"
#include "rstp/sim/simulator.h"

namespace rstp::core {
namespace {

using ioa::Action;
using ioa::Actor;
using ioa::Bit;
using ioa::Packet;
using ioa::TimedEvent;
using ioa::TimedTrace;
using protocols::ProtocolConfig;
using protocols::ProtocolKind;

const TimingParams kParams = TimingParams::make(2, 3, 6);

/// verify_trace's verdict on `t`, after checking that a TraceChecker fed
/// the same events one at a time reaches the identical verdict.
VerifyResult verdict(const TimedTrace& t, std::span<const Bit> input,
                     const VerifyOptions& options = {}) {
  TraceChecker checker{kParams, input, options};
  for (const TimedEvent& e : t.events()) checker.add(e);
  const VerifyResult offline = verify_trace(t, kParams, input, options);
  EXPECT_EQ(checker.finish().violations, offline.violations);
  return offline;
}

/// Hand-built minimal good trace: one bit sent, delivered, written.
TimedTrace good_trace() {
  TimedTrace t;
  t.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(1)), 0});
  t.append({at_tick(2), Actor::Transmitter, Action::internal(1), 1});
  t.append({at_tick(3), Actor::Channel, Action::recv(Packet::to_receiver(1)), 2});
  t.append({at_tick(4), Actor::Transmitter, Action::internal(1), 3});
  t.append({at_tick(5), Actor::Receiver, Action::write(1), 4});
  return t;
}

TEST(Verify, AcceptsGoodTrace) {
  const std::vector<Bit> input = {1};
  const VerifyResult r = verdict(good_trace(), input);
  EXPECT_TRUE(r.ok()) << r;
}

TEST(Verify, EmptyTraceWithEmptyInputIsGood) {
  const VerifyResult r = verdict(TimedTrace{}, {});
  EXPECT_TRUE(r.ok());
}

TEST(Verify, FlagsStepGapTooSmall) {
  TimedTrace t;
  t.append({at_tick(0), Actor::Transmitter, Action::internal(1), 0});
  t.append({at_tick(1), Actor::Transmitter, Action::internal(1), 1});  // gap 1 < c1=2
  const VerifyResult r = verdict(t, {}, {.require_drained = false});
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.clean_of(ViolationKind::StepGapTooSmall));
}

TEST(Verify, FlagsStepGapTooLarge) {
  TimedTrace t;
  t.append({at_tick(0), Actor::Receiver, Action::internal(2), 0});
  t.append({at_tick(4), Actor::Receiver, Action::internal(2), 1});  // gap 4 > c2=3
  const VerifyResult r = verdict(t, {});
  EXPECT_FALSE(r.clean_of(ViolationKind::StepGapTooLarge));
}

TEST(Verify, InputsDoNotCountAsSteps) {
  // Recv events belong to the channel; a long quiet stretch between a
  // process's recv inputs is not a gap violation for that process.
  TimedTrace t;
  t.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(0)), 0});
  t.append({at_tick(6), Actor::Channel, Action::recv(Packet::to_receiver(0)), 1});
  const VerifyResult r =
      verdict(t, {}, {.require_complete = false, .require_drained = false});
  EXPECT_TRUE(r.clean_of(ViolationKind::StepGapTooLarge)) << r;
  EXPECT_TRUE(r.clean_of(ViolationKind::StepGapTooSmall));
}

TEST(Verify, FirstStepCheckIsOptional) {
  TimedTrace t;
  t.append({at_tick(5), Actor::Transmitter, Action::internal(1), 0});  // first at 5 > c2
  EXPECT_TRUE(verdict(t, {}, {.require_complete = false}).ok());
  const VerifyResult strict =
      verdict(t, {}, {.require_complete = false, .check_first_step = true});
  EXPECT_FALSE(strict.clean_of(ViolationKind::FirstStepTooLate));
}

TEST(Verify, FlagsRecvWithoutSend) {
  TimedTrace t;
  t.append({at_tick(1), Actor::Channel, Action::recv(Packet::to_receiver(1)), 0});
  const VerifyResult r = verdict(t, {}, {.require_complete = false});
  EXPECT_FALSE(r.clean_of(ViolationKind::RecvWithoutSend));
}

TEST(Verify, FlagsDuplicatedDelivery) {
  // One send, two recvs: the second recv has no matching send left.
  TimedTrace t;
  t.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(1)), 0});
  t.append({at_tick(1), Actor::Channel, Action::recv(Packet::to_receiver(1)), 1});
  t.append({at_tick(2), Actor::Channel, Action::recv(Packet::to_receiver(1)), 2});
  const VerifyResult r = verdict(t, {}, {.require_complete = false});
  EXPECT_FALSE(r.clean_of(ViolationKind::RecvWithoutSend));
}

TEST(Verify, FlagsDeliveryTooLate) {
  TimedTrace t;
  t.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(1)), 0});
  t.append({at_tick(7), Actor::Channel, Action::recv(Packet::to_receiver(1)), 1});  // 7 > d=6
  const VerifyResult r = verdict(t, {}, {.require_complete = false});
  EXPECT_FALSE(r.clean_of(ViolationKind::DeliveryTooLate));
}

TEST(Verify, MatchesByPayloadNotJustDirection) {
  // recv(2) cannot be matched by an outstanding send(1).
  TimedTrace t;
  t.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(1)), 0});
  t.append({at_tick(1), Actor::Channel, Action::recv(Packet::to_receiver(2)), 1});
  const VerifyResult r = verdict(t, {}, {.require_complete = false});
  EXPECT_FALSE(r.clean_of(ViolationKind::RecvWithoutSend));
  EXPECT_FALSE(r.clean_of(ViolationKind::UndeliveredPacket));
}

TEST(Verify, GreedyMatchingHandlesEqualPayloads) {
  // Two sends of the same payload; deliveries within d of *some* valid
  // bijection must pass: send@0, send@3, recv@6, recv@9 — greedy matches
  // (0→6, 3→9): delays 6 and 6, both ≤ d=6. The reversed matching would
  // fail (0→9 delay 9), so the verifier must pick the feasible one.
  TimedTrace t;
  t.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(1)), 0});
  t.append({at_tick(3), Actor::Transmitter, Action::send(Packet::to_receiver(1)), 1});
  t.append({at_tick(6), Actor::Channel, Action::recv(Packet::to_receiver(1)), 2});
  t.append({at_tick(9), Actor::Channel, Action::recv(Packet::to_receiver(1)), 3});
  const VerifyResult r = verdict(t, {}, {.require_complete = false});
  EXPECT_TRUE(r.clean_of(ViolationKind::DeliveryTooLate)) << r;
}

TEST(Verify, FlagsUndeliveredPacketOnlyWhenDrainedRequired) {
  TimedTrace t;
  t.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(1)), 0});
  EXPECT_FALSE(verdict(t, {}, {.require_complete = false})
                   .clean_of(ViolationKind::UndeliveredPacket));
  EXPECT_TRUE(verdict(t, {}, {.require_complete = false, .require_drained = false})
                  .ok());
}

TEST(Verify, FlagsWrongWriteValue) {
  TimedTrace t = good_trace();  // writes 1
  const std::vector<Bit> input = {0};
  const VerifyResult r = verdict(t, input);
  EXPECT_FALSE(r.clean_of(ViolationKind::OutputNotPrefix));
}

TEST(Verify, FlagsExtraWriteBeyondInput) {
  TimedTrace t = good_trace();
  t.append({at_tick(8), Actor::Receiver, Action::write(0), 5});
  const std::vector<Bit> input = {1};
  const VerifyResult r = verdict(t, input);
  EXPECT_FALSE(r.clean_of(ViolationKind::OutputNotPrefix));
}

TEST(Verify, FlagsIncompleteOutput) {
  const std::vector<Bit> input = {1, 0};
  const VerifyResult r = verdict(good_trace(), input);
  EXPECT_FALSE(r.clean_of(ViolationKind::OutputIncomplete));
  EXPECT_TRUE(verdict(good_trace(), input, {.require_complete = false})
                  .clean_of(ViolationKind::OutputIncomplete));
}

TEST(Verify, ViolationsCarryEventSeqAndPrintable) {
  TimedTrace t;
  t.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(1)), 0});
  t.append({at_tick(7), Actor::Channel, Action::recv(Packet::to_receiver(1)), 1});
  const VerifyResult r = verdict(t, {}, {.require_complete = false});
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].event_seq, 1u);
  std::ostringstream os;
  os << r;
  EXPECT_NE(os.str().find("DeliveryTooLate"), std::string::npos);
}

TEST(Verify, ViolationsComeInCategoryOrder) {
  // A_t's gap law, then A_r's, then bijection and prefix violations in event
  // order, then undelivered sends by packet (not by send time), then the
  // incomplete output — whatever order the events happened in.
  // Each violation carries its event's time (an undelivered packet's is its
  // send's; the incomplete output's is zero), which fault excusal reads.
  TimedTrace t;
  t.append({at_tick(0), Actor::Receiver, Action::internal(2), 0});
  t.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(2)), 1});
  t.append({at_tick(1), Actor::Receiver, Action::internal(2), 2});  // gap 1 < c1
  t.append({at_tick(1), Actor::Channel, Action::recv(Packet::to_receiver(1)), 3});
  t.append({at_tick(2), Actor::Transmitter, Action::send(Packet::to_receiver(0)), 4});
  t.append({at_tick(6), Actor::Transmitter, Action::internal(1), 5});  // gap 4 > c2
  t.append({at_tick(6), Actor::Receiver, Action::write(0), 6});  // gap 5 > c2, Y ⋢ X
  const std::vector<Bit> input = {1, 0};
  const VerifyResult r = verdict(t, input);
  const std::vector<std::tuple<ViolationKind, std::uint64_t, std::int64_t>> expected = {
      {ViolationKind::StepGapTooLarge, 5, 6},   {ViolationKind::StepGapTooSmall, 2, 1},
      {ViolationKind::StepGapTooLarge, 6, 6},   {ViolationKind::RecvWithoutSend, 3, 1},
      {ViolationKind::OutputNotPrefix, 6, 6},   {ViolationKind::UndeliveredPacket, 4, 2},
      {ViolationKind::UndeliveredPacket, 1, 0}, {ViolationKind::OutputIncomplete, 0, 0}};
  std::vector<std::tuple<ViolationKind, std::uint64_t, std::int64_t>> got;
  for (const Violation& v : r.violations) got.emplace_back(v.kind, v.event_seq, v.time.ticks());
  EXPECT_EQ(got, expected) << r;
}

TEST(Verify, AcceptsAllShippedProtocolTraces) {
  // Cross-module smoke: every paper protocol's worst-case trace verifies.
  for (const auto kind : protocols::kPaperProtocolKinds) {
    protocols::ProtocolConfig cfg;
    cfg.params = TimingParams::make(1, 2, 6);
    cfg.k = 4;
    cfg.input = make_random_input(24, 9);
    const ProtocolRun run = run_protocol(kind, cfg, Environment::worst_case());
    ASSERT_TRUE(run.output_correct) << kind;
    const VerifyResult r = verify_trace(run.result.trace, cfg.params, cfg.input);
    EXPECT_TRUE(r.ok()) << protocols::to_string(kind) << '\n' << r;
  }
}

// ---------------------------------------------------------------------------
// Online use: a TraceChecker armed as the run's observer, beside the recorded
// trace, must return exactly verify_trace's violations — kind, seq, detail
// and order.

/// Runs `kind` with the trace recorded and a checker armed; returns the
/// offline verdict after checking the online one equals it.
VerifyResult online_equals_offline(ProtocolKind kind, const ProtocolConfig& cfg,
                                   const Environment& env) {
  TraceChecker checker{cfg.params, cfg.input};
  const ProtocolRun run = run_protocol(kind, cfg, env, /*record_trace=*/true,
                                       /*max_events=*/200'000, &checker);
  const VerifyResult offline = verify_trace(run.result.trace, cfg.params, cfg.input);
  EXPECT_EQ(checker.finish().violations, offline.violations)
      << protocols::to_string(kind) << " in env seed " << env.seed;
  return offline;
}

ProtocolConfig small_config(ProtocolKind kind) {
  ProtocolConfig cfg;
  cfg.params = TimingParams::make(1, 2, 8);
  cfg.k = kind == ProtocolKind::Indexed ? 64u : 8u;
  cfg.input = make_random_input(16, 1);
  return cfg;
}

TEST(TraceChecker, OnlineEqualsOfflineForEveryProtocolAndEnvironment) {
  std::size_t rejected = 0;
  for (const auto kind : protocols::kAllProtocolKinds) {
    const ProtocolConfig cfg = small_config(kind);
    std::vector<Environment> envs = {Environment::worst_case(), Environment::adversarial_fast()};
    for (std::uint64_t seed = 0; seed < 4; ++seed) envs.push_back(Environment::randomized(seed));
    for (const Environment& env : envs) {
      if (!online_equals_offline(kind, cfg, env).ok()) ++rejected;
    }
  }
  // The strawman exhibit is corrupted in some environments, so rejecting
  // verdicts are compared too, not only empty ones.
  EXPECT_GT(rejected, 0u);
}

TEST(TraceChecker, OnlineEqualsOfflineOnABetaRunWithTooShortAWait) {
  // β idles ⌈d/c1⌉ steps between blocks; with one step the receiver mixes
  // blocks and writes a wrong prefix. These environments run to completion
  // (others make the block decoder fail-stop) and the verifier rejects them.
  ProtocolConfig cfg = small_config(ProtocolKind::Beta);
  cfg.wait_steps_override = 1;
  cfg.input = make_random_input(64, 3);
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    EXPECT_FALSE(online_equals_offline(ProtocolKind::Beta, cfg, Environment::randomized(seed)).ok())
        << "seed " << seed;
  }
}

TEST(TraceChecker, OnlineEqualsOfflineOnFaultInjectedRuns) {
  // Every fault kind at 10%: dropped, duplicated, late and corrupted packets
  // surface as bijection, prefix and liveness violations.
  fault::FaultRates rates;
  rates.drop_pm = 100;
  rates.duplicate_pm = 100;
  rates.late_pm = 100;
  rates.corrupt_pm = 100;
  for (std::uint64_t fault_seed = 0; fault_seed < 4; ++fault_seed) {
    const ProtocolConfig cfg = small_config(ProtocolKind::Beta);
    rates.corrupt_space = cfg.k;
    protocols::ProtocolInstance inst = protocols::make_protocol(ProtocolKind::Beta, cfg);
    auto ts = sim::make_fixed_rate(cfg.params.c2);
    auto rs = sim::make_fixed_rate(cfg.params.c1);
    channel::Channel chan{cfg.params.d, channel::make_max_delay()};
    fault::SeededFaultInjector injector{fault_seed, rates};
    chan.set_fault_injector(&injector);
    TraceChecker checker{cfg.params, cfg.input};
    sim::SimConfig sc;
    sc.params = cfg.params;
    sc.max_events = 20'000;
    sc.observer = &checker;
    sim::Simulator sim{*inst.transmitter, *inst.receiver, chan, *ts, *rs, sc};
    const sim::RunResult result = sim.run();
    ASSERT_FALSE(result.faults.empty()) << "fault seed " << fault_seed;
    const VerifyResult offline = verify_trace(result.trace, cfg.params, cfg.input);
    EXPECT_FALSE(offline.ok()) << "fault seed " << fault_seed;
    EXPECT_EQ(checker.finish().violations, offline.violations) << "fault seed " << fault_seed;
  }
}

TEST(TraceChecker, RejectsEventsOutOfOrderAsAppendDoes) {
  TraceChecker time_goes_back{kParams, {}};
  time_goes_back.add({at_tick(3), Actor::Transmitter, Action::internal(1), 0});
  EXPECT_THROW(
      time_goes_back.add({at_tick(2), Actor::Receiver, Action::internal(2), 1}),
      ContractViolation);

  TraceChecker seq_repeats{kParams, {}};
  seq_repeats.add({at_tick(3), Actor::Transmitter, Action::internal(1), 4});
  EXPECT_THROW(seq_repeats.add({at_tick(3), Actor::Receiver, Action::internal(2), 4}),
               ContractViolation);

  // Simultaneous events are fine: times need only be non-decreasing.
  TraceChecker simultaneous{kParams, {}};
  simultaneous.add({at_tick(3), Actor::Transmitter, Action::internal(1), 0});
  EXPECT_NO_THROW(
      simultaneous.add({at_tick(3), Actor::Receiver, Action::internal(2), 1}));
}

TEST(TraceChecker, FinishReportsTheEventsSoFar) {
  // finish() does not consume the checker: a prefix's verdict, then more
  // events, then the whole trace's verdict.
  const std::vector<Bit> input = {1};
  TraceChecker checker{kParams, input};
  const TimedTrace t = good_trace();
  checker.add(t.events()[0]);
  const VerifyResult prefix = checker.finish();
  EXPECT_FALSE(prefix.clean_of(ViolationKind::UndeliveredPacket));
  EXPECT_FALSE(prefix.clean_of(ViolationKind::OutputIncomplete));
  for (std::size_t i = 1; i < t.size(); ++i) checker.add(t.events()[i]);
  EXPECT_TRUE(checker.finish().ok()) << checker.finish();
}

}  // namespace
}  // namespace rstp::core
