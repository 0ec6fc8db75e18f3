// Tests for A^β(k) (paper §6.1, Figure 3): the block r-passive solution.
#include "rstp/protocols/beta.h"

#include <gtest/gtest.h>

#include "rstp/channel/policies.h"
#include "rstp/combinatorics/binomial.h"
#include "rstp/combinatorics/block_coder.h"
#include "rstp/common/check.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"
#include "rstp/core/verify.h"
#include "rstp/fault/fault.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/simulator.h"

namespace rstp::protocols {
namespace {

using core::Environment;
using ioa::Action;
using ioa::ActionKind;
using ioa::Bit;

ProtocolConfig config_for(std::vector<Bit> input, std::uint32_t k = 4, std::int64_t c1 = 1,
                          std::int64_t c2 = 2, std::int64_t d = 4) {
  ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(c1, c2, d);
  cfg.k = k;
  cfg.input = std::move(input);
  return cfg;
}

TEST(BetaTransmitter, RoundStructureIsSendsThenWaits) {
  // δ = ⌈4/1⌉ = 4; k=4 → B = ⌊log2 μ_4(4)⌋ = ⌊log2 35⌋ = 5 bits per block.
  BetaTransmitter t{config_for(core::make_random_input(10, 3))};
  EXPECT_EQ(t.block_size(), 4);
  EXPECT_EQ(t.bits_per_block(), 5u);
  // 10 bits → 2 blocks → 8 symbols.
  EXPECT_EQ(t.symbol_stream().size(), 8u);

  // Round 1: exactly δ sends then δ waits.
  for (int i = 0; i < 4; ++i) {
    const auto a = t.enabled_local();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->kind, ActionKind::Send) << "send " << i;
    t.apply(*a);
  }
  for (int i = 0; i < 4; ++i) {
    const auto a = t.enabled_local();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->kind, ActionKind::Internal) << "wait " << i;
    t.apply(*a);
  }
  // Round 2 begins with a send.
  const auto a = t.enabled_local();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, ActionKind::Send);
}

TEST(BetaTransmitter, StopsAfterFinalWaitPhase) {
  BetaTransmitter t{config_for(core::make_random_input(5, 9))};  // 1 block
  for (int i = 0; i < 8; ++i) {
    const auto a = t.enabled_local();
    ASSERT_TRUE(a.has_value());
    t.apply(*a);
  }
  EXPECT_FALSE(t.enabled_local().has_value());
  EXPECT_TRUE(t.transmission_complete());
}

TEST(BetaTransmitter, EmptyInputSendsNothing) {
  BetaTransmitter t{config_for({})};
  EXPECT_TRUE(t.symbol_stream().empty());
  EXPECT_FALSE(t.enabled_local().has_value());
  EXPECT_TRUE(t.quiescent());
}

TEST(BetaReceiver, DecodesFullBlocksFromMultiset) {
  const auto input = core::make_random_input(5, 4);  // exactly one block (B=5)
  const ProtocolConfig cfg = config_for(input);
  BetaTransmitter t{cfg};
  BetaReceiver r{cfg};
  // Feed the block's symbols in REVERSE order — decoding must not care.
  const auto& stream = t.symbol_stream();
  ASSERT_EQ(stream.size(), 4u);
  for (std::size_t i = stream.size(); i-- > 0;) {
    r.apply(Action::recv(ioa::Packet::to_receiver(stream[i])));
  }
  EXPECT_EQ(r.decoded_bits(), 5u);
  // Drain the writes.
  std::vector<Bit> written;
  while (true) {
    const auto a = r.enabled_local();
    ASSERT_TRUE(a.has_value());
    if (a->kind != ActionKind::Write) break;
    written.push_back(a->message);
    r.apply(*a);
  }
  EXPECT_EQ(written, input);
  EXPECT_TRUE(r.quiescent());
}

TEST(BetaReceiver, DiscardsPaddingBeyondTargetLength) {
  const std::vector<Bit> input = {1, 0, 1};  // 3 bits, block carries 5
  const ProtocolConfig cfg = config_for(input);
  BetaTransmitter t{cfg};
  BetaReceiver r{cfg};
  for (const auto s : t.symbol_stream()) {
    r.apply(Action::recv(ioa::Packet::to_receiver(s)));
  }
  // The block decodes to 5 bits, but only its 3 real bits are kept.
  EXPECT_EQ(r.decoded_bits(), 3u);
  std::vector<Bit> written;
  while (r.enabled_local()->kind == ActionKind::Write) {
    written.push_back(r.enabled_local()->message);
    r.apply(*r.enabled_local());
  }
  EXPECT_EQ(written, input) << "only |X| bits are written; padding is dropped";
}

TEST(BetaTransmitter, FixedPlanEncodesLikeOneMessageStream) {
  // The fixed plan encodes X block by block; the concatenated plans must be
  // exactly the padded one-stream encoding of X.
  const auto input = core::make_random_input(23, 11);
  const BetaTransmitter t{config_for(input)};
  EXPECT_EQ(t.planner().planned(), 0u);
  EXPECT_EQ(t.symbol_stream(), combinatorics::BlockCoder(4, 4).encode_message(input));
  EXPECT_EQ(t.planner().planned(), 5u);
}

TEST(BetaPlanning, MakeProtocolPlansNoBlock) {
  // Planning is on demand: building the pair encodes nothing. Only the
  // first step plans (and encodes) block 0.
  const ProtocolConfig cfg = config_for(core::make_random_input(4096, 5));
  const ProtocolInstance pair = make_protocol(ProtocolKind::Beta, cfg);
  const auto& t = dynamic_cast<const BetaTransmitter&>(*pair.transmitter);
  EXPECT_EQ(t.planner().planned(), 0u);
  ASSERT_TRUE(t.enabled_local().has_value());
  EXPECT_EQ(t.planner().planned(), 1u);
}

TEST(BetaPlanning, ACappedRunPlansAtMostOneBlockPastTheLastStarted) {
  const auto input = core::make_random_input(400, 6);  // 80 blocks of 5 bits
  ProtocolConfig cfg = config_for(input);
  const auto planner = block_planner_for(BlockPlanner::Discipline::TimedBlocks, cfg);
  cfg.planner = planner;
  const core::ProtocolRun run = core::run_protocol(ProtocolKind::Beta, cfg,
                                                   Environment::worst_case(), false, 300);
  ASSERT_FALSE(run.result.quiescent);
  const std::uint64_t sends = core::effort_of(run, input.size()).transmitter_sends;
  const std::uint64_t started = (sends + 3) / 4;  // δ = 4
  ASSERT_GT(started, 0u);
  EXPECT_GE(planner->planned(), started);
  EXPECT_LE(planner->planned(), started + 1);
  EXPECT_LT(planner->planned(), 80u);
}

TEST(BetaPlanning, AFullRunPlansEveryBlockOnce) {
  const auto input = core::make_random_input(403, 7);
  ProtocolConfig cfg = config_for(input);
  const auto planner = block_planner_for(BlockPlanner::Discipline::TimedBlocks, cfg);
  cfg.planner = planner;
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Beta, cfg, Environment::worst_case(), false);
  ASSERT_TRUE(run.output_correct);
  EXPECT_EQ(planner->planned(), combinatorics::BlockCoder(4, 4).blocks_for(input.size()));
}

TEST(BetaPlanning, PlanningPastTheEndThrows) {
  BlockPlanner planner{BlockPlanner::Discipline::TimedBlocks, 4, core::make_random_input(10, 8),
                       4, 4};  // B = 5: two blocks
  (void)planner.plan(0);
  (void)planner.plan(1);
  EXPECT_FALSE(planner.has_block(2));
  EXPECT_THROW((void)planner.plan(2), ContractViolation);
  EXPECT_THROW((void)planner.plan(3), ContractViolation);  // not the next block either
  EXPECT_EQ(planner.planned(), 2u);
}

TEST(BetaTransmitter, ClonesSharingAPlannerReadTheSamePlansInAnyInterleaving) {
  // Clones share one fixed planner, which grows when any of them reaches a
  // new block. Each plan is a pure function of (X, δ) and the deque never
  // moves a plan, so clones that take turns running ahead send the same
  // blocks.
  const auto input = core::make_random_input(40, 21);  // 8 blocks
  const BetaTransmitter t{config_for(input)};
  const std::unique_ptr<ioa::Automaton> a = t.clone();
  const std::unique_ptr<ioa::Automaton> b = t.clone();
  std::vector<combinatorics::Symbol> sent_a;
  std::vector<combinatorics::Symbol> sent_b;
  const auto step = [](ioa::Automaton& x, int steps, std::vector<combinatorics::Symbol>& sent) {
    for (int i = 0; i < steps; ++i) {
      const auto action = x.enabled_local();
      if (!action.has_value()) return;
      if (action->kind == ActionKind::Send) sent.push_back(action->packet.payload);
      x.apply(*action);
    }
  };
  step(*a, 20, sent_a);  // rounds are 8 steps: a is 4 sends into block 2
  EXPECT_EQ(t.planner().planned(), 3u);
  step(*b, 44, sent_b);  // b reads a's three plans, then plans blocks 3 to 5
  EXPECT_EQ(t.planner().planned(), 6u);
  for (int turn = 0; turn < 40; ++turn) {  // then they alternate step by step
    step(*a, 1, sent_a);
    step(*b, 1, sent_b);
  }
  step(*a, 1000, sent_a);
  step(*b, 1000, sent_b);
  const auto expected = combinatorics::BlockCoder(4, 4).encode_message(input);
  EXPECT_EQ(sent_a, expected);
  EXPECT_EQ(sent_b, expected);
  EXPECT_EQ(t.planner().planned(), 8u);
}

TEST(BetaTransmitter, OraclePlanIsNotCappedByTheEstimatorMaxBlock) {
  // δ1 = ⌈300/1⌉ = 300 exceeds EstimatorConfig::max_block (256), a cap that
  // applies to live plans only: the oracle plan keeps 300-packet blocks.
  const auto input = core::make_random_input(20, 13);
  const ProtocolConfig cfg = config_for(input, 2, 1, 1, 300);
  const BetaTransmitter t{cfg};
  EXPECT_EQ(t.block_size(), 300);
  EXPECT_EQ(t.wait_steps(), 300);
  EXPECT_EQ(t.bits_per_block(), 8u);  // μ_2(300) = 301
  EXPECT_EQ(t.symbol_stream().size(), 3u * 300u);
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Beta, cfg, Environment::worst_case());
  EXPECT_TRUE(run.result.quiescent);
  EXPECT_TRUE(run.output_correct);
  EXPECT_EQ(run.result.metrics.counters.protocol.blocks_encoded, 3u);
  const auto verdict = core::verify_trace(run.result.trace, cfg.params, input);
  EXPECT_TRUE(verdict.ok()) << verdict;
}

TEST(BetaReceiver, ABlockPastTheEndOfXAddsNoBits) {
  // Only a duplicating channel delivers more blocks than X has. The extra
  // block is still decoded (a bad codeword would throw ModelError) but
  // contributes nothing to the output.
  const std::vector<Bit> input = {1, 0, 1};
  const ProtocolConfig cfg = config_for(input);
  const BetaTransmitter t{cfg};
  BetaReceiver r{cfg};
  const auto stream = t.symbol_stream();
  for (int copy = 0; copy < 3; ++copy) {
    for (const auto s : stream) r.apply(Action::recv(ioa::Packet::to_receiver(s)));
  }
  EXPECT_EQ(r.decoded_bits(), 3u);
  EXPECT_EQ(r.protocol_counters().blocks_decoded, 3u);
}

TEST(BetaReceiver, RejectsOutOfAlphabetSymbols) {
  BetaReceiver r{config_for({1}, /*k=*/4)};
  EXPECT_THROW(r.apply(Action::recv(ioa::Packet::to_receiver(4))), ContractViolation);
}

TEST(BetaEndToEnd, CorrectUnderWorstCase) {
  const auto input = core::make_random_input(100, 7);
  const auto cfg = config_for(input, 8);
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Beta, cfg, Environment::worst_case());
  EXPECT_TRUE(run.result.quiescent);
  EXPECT_TRUE(run.output_correct);
  const auto verdict = core::verify_trace(run.result.trace, cfg.params, input);
  EXPECT_TRUE(verdict.ok()) << verdict;
}

TEST(BetaEndToEnd, CorrectUnderAdversarialBatchReordering) {
  // The Lemma 5.1 adversary erases intra-window order; β must not care.
  const auto input = core::make_random_input(80, 21);
  const auto cfg = config_for(input, 4, /*c1=*/1, /*c2=*/1, /*d=*/4);
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Beta, cfg, Environment::adversarial_fast());
  EXPECT_TRUE(run.result.quiescent);
  EXPECT_TRUE(run.output_correct);
  const auto verdict = core::verify_trace(run.result.trace, cfg.params, input);
  EXPECT_TRUE(verdict.ok()) << verdict;
}

TEST(BetaEndToEnd, CorrectUnderRandomizedEnvironments) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto input = core::make_random_input(60, seed + 100);
    const auto cfg = config_for(input, 4, 2, 3, 9);
    const core::ProtocolRun run =
        core::run_protocol(ProtocolKind::Beta, cfg, Environment::randomized(seed));
    EXPECT_TRUE(run.output_correct) << "seed " << seed;
    const auto verdict = core::verify_trace(run.result.trace, cfg.params, input);
    EXPECT_TRUE(verdict.ok()) << "seed " << seed << '\n' << verdict;
  }
}

TEST(BetaEndToEnd, EffortIsWithinLemma61Bound) {
  const auto params = core::TimingParams::make(1, 2, 6);
  const core::BoundsReport bounds = core::compute_bounds(params, 8);
  // The Lemma 6.1 bound assumes |X| ≡ 0 (mod B) (the paper's simplifying
  // assumption); align n so padding does not distort the per-bit figure.
  const std::size_t n = bounds.beta_bits_per_block * 64;
  const auto m =
      core::measure_effort(ProtocolKind::Beta, params, 8, n, Environment::worst_case());
  EXPECT_TRUE(m.output_correct);
  // Worst-case measured effort must respect the Lemma 6.1 upper bound (up to
  // the final round's truncation, which only helps).
  EXPECT_LE(m.effort, bounds.beta_upper * (1.0 + 1e-9));
  // And cannot beat the Theorem 5.3 lower bound asymptotically; allow the
  // finite-n tail a little slack.
  EXPECT_GE(m.effort, bounds.passive_lower * 0.8);
}

TEST(BetaEndToEnd, LargerAlphabetLowersEffort) {
  const auto params = core::TimingParams::make(1, 2, 8);
  const auto m2 =
      core::measure_effort(ProtocolKind::Beta, params, 2, 256, Environment::worst_case());
  const auto m16 =
      core::measure_effort(ProtocolKind::Beta, params, 16, 256, Environment::worst_case());
  EXPECT_TRUE(m2.output_correct);
  EXPECT_TRUE(m16.output_correct);
  EXPECT_LT(m16.effort, m2.effort) << "k=16 must beat k=2 (more bits per block)";
}

TEST(BetaEndToEnd, BeatsAlphaForAnyK) {
  const auto params = core::TimingParams::make(1, 2, 8);
  const auto alpha =
      core::measure_effort(ProtocolKind::Alpha, params, 2, 256, Environment::worst_case());
  const auto beta =
      core::measure_effort(ProtocolKind::Beta, params, 2, 256, Environment::worst_case());
  EXPECT_LT(beta.effort, alpha.effort)
      << "even k=2 blocks carry >1 bit per round once δ is large";
}

TEST(BetaEndToEnd, DropFaultIsDetectedAsModelViolation) {
  // Outside the model: drop packets. Loss desynchronizes β's block framing —
  // the receiver groups packets across block boundaries and decodes garbage
  // (or stalls on a forever-incomplete final block). β's correctness promise
  // simply does not extend past the model, and the verifier proves the run
  // was outside it: the dropped sends are flagged as undelivered.
  const auto input = core::make_random_input(20, 5);
  const auto cfg = config_for(input, 4);
  protocols::ProtocolInstance inst = make_protocol(ProtocolKind::Beta, cfg);
  auto ts = sim::make_fixed_rate(cfg.params.c2);
  auto rs = sim::make_fixed_rate(cfg.params.c2);
  channel::Channel chan{cfg.params.d, channel::make_max_delay()};
  sim::SimConfig sc;
  sc.params = cfg.params;
  sc.max_events = 5000;
  // Drop every 3th send of either direction: channel seqs 3k - 1.
  std::vector<fault::PinnedFault> pins;
  for (std::uint64_t k = 1; 3 * k <= sc.max_events; ++k) {
    pins.push_back(fault::PinnedFault{3 * k - 1, fault::FaultKind::Drop});
  }
  fault::SeededFaultInjector injector{0, fault::FaultRates{}, std::move(pins)};
  chan.set_fault_injector(&injector);
  sim::Simulator sim{*inst.transmitter, *inst.receiver, chan, *ts, *rs, sc};
  const auto result = sim.run();
  EXPECT_GT(result.dropped_packets, 0u);
  const auto verdict = core::verify_trace(result.trace, cfg.params, input,
                                          {.require_complete = false});
  EXPECT_FALSE(verdict.clean_of(core::ViolationKind::UndeliveredPacket))
      << "the verifier must prove this run is outside good(A)";
}

TEST(BetaEndToEnd, VariousLengthsIncludingBlockBoundaries) {
  const auto params = core::TimingParams::make(1, 2, 4);
  const core::BoundsReport bounds = core::compute_bounds(params, 4);
  const std::size_t B = bounds.beta_bits_per_block;
  for (const std::size_t n : {std::size_t{1}, B - 1, B, B + 1, 3 * B, 10 * B + 2}) {
    const auto input = core::make_random_input(n, n);
    const core::ProtocolRun run = core::run_protocol(ProtocolKind::Beta, config_for(input, 4),
                                                     Environment::worst_case());
    EXPECT_TRUE(run.output_correct) << "n=" << n;
  }
}

}  // namespace
}  // namespace rstp::protocols
