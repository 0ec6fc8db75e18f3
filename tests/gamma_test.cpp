// Tests for A^γ(k) (paper §6.2, Figure 4): the active solution.
#include "rstp/protocols/gamma.h"

#include <gtest/gtest.h>

#include "rstp/channel/policies.h"
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
using ioa::Packet;

ProtocolConfig config_for(std::vector<Bit> input, std::uint32_t k = 4, std::int64_t c1 = 1,
                          std::int64_t c2 = 2, std::int64_t d = 8) {
  ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(c1, c2, d);
  cfg.k = k;
  cfg.input = std::move(input);
  return cfg;
}

TEST(GammaTransmitter, BlockSizeIsDelta2) {
  // δ2 = ⌊8/2⌋ = 4.
  GammaTransmitter t{config_for(core::make_random_input(10, 1))};
  EXPECT_EQ(t.block_size(), 4);
  // k=4, δ2=4 → B = ⌊log2 μ_4(4)⌋ = ⌊log2 35⌋ = 5.
  EXPECT_EQ(t.bits_per_block(), 5u);
}

TEST(GammaTransmitter, SendsBlockThenAwaitsAcks) {
  GammaTransmitter t{config_for(core::make_random_input(5, 2))};  // one block
  for (int i = 0; i < 4; ++i) {
    const auto a = t.enabled_local();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->kind, ActionKind::Send) << "packet " << i;
    t.apply(*a);
  }
  // Now idling for acks.
  auto a = t.enabled_local();
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->kind, ActionKind::Internal);
  t.apply(*a);
  // Three acks: still waiting.
  for (int i = 0; i < 3; ++i) {
    t.apply(Action::recv(Packet::to_transmitter(kAckPayload)));
    EXPECT_EQ(t.enabled_local()->kind, ActionKind::Internal);
  }
  // Fourth ack releases the transmitter; with no data left it stops.
  t.apply(Action::recv(Packet::to_transmitter(kAckPayload)));
  EXPECT_FALSE(t.enabled_local().has_value());
  EXPECT_TRUE(t.transmission_complete());
  EXPECT_TRUE(t.quiescent());
}

TEST(GammaTransmitter, ExcessAcksAreContractViolations) {
  GammaTransmitter t{config_for({})};
  EXPECT_THROW(t.apply(Action::recv(Packet::to_transmitter(kAckPayload))), ContractViolation);
}

TEST(GammaPlanning, MakeProtocolPlansNoBlock) {
  const ProtocolConfig cfg = config_for(core::make_random_input(4096, 5));
  const ProtocolInstance pair = make_protocol(ProtocolKind::Gamma, cfg);
  const auto& t = dynamic_cast<const GammaTransmitter&>(*pair.transmitter);
  EXPECT_EQ(t.planner().planned(), 0u);
  ASSERT_TRUE(t.enabled_local().has_value());
  EXPECT_EQ(t.planner().planned(), 1u);
}

TEST(GammaPlanning, ACappedRunPlansAtMostOneBlockPastTheLastStarted) {
  const auto input = core::make_random_input(400, 6);  // 80 blocks of 5 bits
  ProtocolConfig cfg = config_for(input);
  const auto planner = block_planner_for(BlockPlanner::Discipline::AckedBlocks, cfg);
  cfg.planner = planner;
  const core::ProtocolRun run = core::run_protocol(ProtocolKind::Gamma, cfg,
                                                   Environment::worst_case(), false, 300);
  ASSERT_FALSE(run.result.quiescent);
  const std::uint64_t sends = core::effort_of(run, input.size()).transmitter_sends;
  const std::uint64_t started = (sends + 3) / 4;  // δ2 = 4
  ASSERT_GT(started, 0u);
  EXPECT_GE(planner->planned(), started);
  EXPECT_LE(planner->planned(), started + 1);
  EXPECT_LT(planner->planned(), 80u);
}

TEST(GammaPlanning, AFullRunPlansEveryBlockOnce) {
  const auto input = core::make_random_input(403, 7);
  ProtocolConfig cfg = config_for(input);
  const auto planner = block_planner_for(BlockPlanner::Discipline::AckedBlocks, cfg);
  cfg.planner = planner;
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Gamma, cfg, Environment::worst_case(), false);
  ASSERT_TRUE(run.output_correct);
  EXPECT_EQ(planner->planned(), combinatorics::BlockCoder(4, 4).blocks_for(input.size()));
}

TEST(GammaReceiver, AcksTakePriorityOverWrites) {
  const auto input = core::make_random_input(5, 3);
  const ProtocolConfig cfg = config_for(input);
  GammaTransmitter t{cfg};
  GammaReceiver r{cfg};
  // Deliver the whole block; the receiver owes 4 acks and 5 writes.
  for (const auto s : t.symbol_stream()) {
    r.apply(Action::recv(Packet::to_receiver(s)));
  }
  EXPECT_EQ(r.decoded_bits(), 5u);
  for (int i = 0; i < 4; ++i) {
    const auto a = r.enabled_local();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->kind, ActionKind::Send) << "ack " << i << " before any write";
    EXPECT_EQ(a->packet.payload, kAckPayload);
    r.apply(*a);
  }
  for (std::size_t i = 0; i < input.size(); ++i) {
    const auto a = r.enabled_local();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->kind, ActionKind::Write);
    r.apply(*a);
  }
  EXPECT_EQ(r.output(), input);
  EXPECT_TRUE(r.quiescent());
}

TEST(GammaEndToEnd, CorrectUnderWorstCase) {
  const auto input = core::make_random_input(100, 11);
  const auto cfg = config_for(input, 8);
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Gamma, cfg, Environment::worst_case());
  EXPECT_TRUE(run.result.quiescent);
  EXPECT_TRUE(run.output_correct);
  const auto verdict = core::verify_trace(run.result.trace, cfg.params, input);
  EXPECT_TRUE(verdict.ok()) << verdict;
}

TEST(GammaEndToEnd, CorrectUnderRandomDelaysThatReorder) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto input = core::make_random_input(60, seed + 31);
    const auto cfg = config_for(input, 4, 1, 3, 9);
    const core::ProtocolRun run =
        core::run_protocol(ProtocolKind::Gamma, cfg, Environment::randomized(seed));
    EXPECT_TRUE(run.output_correct) << "seed " << seed;
    const auto verdict = core::verify_trace(run.result.trace, cfg.params, input);
    EXPECT_TRUE(verdict.ok()) << "seed " << seed << '\n' << verdict;
  }
}

TEST(GammaEndToEnd, EffortIsWithinSection62Bound) {
  const auto params = core::TimingParams::make(1, 2, 8);
  const core::BoundsReport bounds = core::compute_bounds(params, 8);
  const auto m =
      core::measure_effort(ProtocolKind::Gamma, params, 8, 512, Environment::worst_case());
  EXPECT_TRUE(m.output_correct);
  EXPECT_LE(m.effort, bounds.gamma_upper * (1.0 + 1e-9));
  EXPECT_GE(m.effort, bounds.active_lower * 0.8);
}

TEST(GammaEndToEnd, AckCountMatchesDataCount) {
  const auto input = core::make_random_input(40, 17);
  const auto cfg = config_for(input, 4);
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Gamma, cfg, Environment::worst_case());
  EXPECT_TRUE(run.output_correct);
  EXPECT_EQ(run.result.receiver_sends, run.result.transmitter_sends)
      << "γ acknowledges every data packet exactly once";
}

TEST(GammaEndToEnd, BlocksNeverOverlapInFlight) {
  // The transmitter never has more than δ2 unacked packets, so the channel
  // never holds more than δ2 data packets.
  const auto input = core::make_random_input(50, 23);
  const auto cfg = config_for(input, 4);
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Gamma, cfg, Environment::worst_case());
  ASSERT_TRUE(run.output_correct);
  std::int64_t in_flight = 0;
  std::int64_t max_in_flight = 0;
  for (const auto& e : run.result.trace.events()) {
    if (e.action.kind == ActionKind::Send &&
        e.action.packet.direction == Packet::Direction::TransmitterToReceiver) {
      ++in_flight;
    }
    if (e.action.kind == ActionKind::Recv &&
        e.action.packet.direction == Packet::Direction::TransmitterToReceiver) {
      --in_flight;
    }
    max_in_flight = std::max(max_in_flight, in_flight);
  }
  const auto delta2 = cfg.params.delta2();
  EXPECT_LE(max_in_flight, delta2);
}

TEST(GammaEndToEnd, AckLossDeadlocksInsteadOfCorrupting) {
  // Outside the model: drop packets. γ stalls awaiting acks; output stays a
  // prefix of X.
  const auto input = core::make_random_input(20, 5);
  const auto cfg = config_for(input, 4);
  protocols::ProtocolInstance inst = make_protocol(ProtocolKind::Gamma, cfg);
  auto ts = sim::make_fixed_rate(cfg.params.c2);
  auto rs = sim::make_fixed_rate(cfg.params.c2);
  channel::Channel chan{cfg.params.d, channel::make_max_delay()};
  sim::SimConfig sc;
  sc.params = cfg.params;
  sc.max_events = 5000;
  // Drop every 5th send of either direction: channel seqs 5k - 1.
  std::vector<fault::PinnedFault> pins;
  for (std::uint64_t k = 1; 5 * k <= sc.max_events; ++k) {
    pins.push_back(fault::PinnedFault{5 * k - 1, fault::FaultKind::Drop});
  }
  fault::SeededFaultInjector injector{0, fault::FaultRates{}, std::move(pins)};
  chan.set_fault_injector(&injector);
  sim::Simulator sim{*inst.transmitter, *inst.receiver, chan, *ts, *rs, sc};
  const auto result = sim.run();
  EXPECT_FALSE(result.quiescent);
  ASSERT_LE(result.output.size(), input.size());
  EXPECT_TRUE(std::equal(result.output.begin(), result.output.end(), input.begin()));
}

TEST(GammaEndToEnd, TightTimingDelta2EqualsOne) {
  // c2 = d → δ2 = 1: one packet per block, one ack per packet. Still correct
  // (and equivalent in rhythm to stop-and-wait).
  const auto input = core::make_random_input(12, 8);
  const auto cfg = config_for(input, 4, 1, 8, 8);
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Gamma, cfg, Environment::worst_case());
  EXPECT_TRUE(run.output_correct);
}

TEST(GammaEndToEnd, EmptyInput) {
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Gamma, config_for({}), Environment::worst_case());
  EXPECT_TRUE(run.output_correct);
  EXPECT_TRUE(run.result.quiescent);
  EXPECT_EQ(run.result.transmitter_sends, 0u);
}

}  // namespace
}  // namespace rstp::protocols
