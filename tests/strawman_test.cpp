// Tests for the order-sensitive strawman — the executable argument for why
// the paper's encodings must be multiset-based (experiment E7).
#include "rstp/protocols/strawman.h"

#include <gtest/gtest.h>

#include "rstp/common/check.h"
#include "rstp/core/effort.h"
#include "rstp/core/verify.h"

namespace rstp::protocols {
namespace {

using core::Environment;
using ioa::Bit;

ProtocolConfig config_for(std::vector<Bit> input, std::uint32_t k = 4, std::int64_t c1 = 1,
                          std::int64_t c2 = 1, std::int64_t d = 4) {
  ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(c1, c2, d);
  cfg.k = k;
  cfg.input = std::move(input);
  return cfg;
}

TEST(Strawman, CarriesMoreBitsPerBlockThanBeta) {
  // Positional coding packs δ·⌊log2 k⌋ bits ≥ ⌊log2 μ_k(δ)⌋ — it is MORE
  // efficient when it works, which is exactly why it is tempting and wrong.
  StrawmanTransmitter t{config_for(core::make_random_input(16, 1))};
  EXPECT_EQ(t.block_size(), 4);
  EXPECT_EQ(t.bits_per_block(), 8u);  // 4 packets × 2 bits
}

TEST(Strawman, CorrectUnderFifoEnvironments) {
  // Under order-preserving delivery the strawman works fine.
  const auto input = core::make_random_input(64, 2);
  const auto cfg = config_for(input);
  Environment env = Environment::worst_case();  // MaxDelay is FIFO
  const core::ProtocolRun run = core::run_protocol(ProtocolKind::Strawman, cfg, env);
  EXPECT_TRUE(run.result.quiescent);
  EXPECT_TRUE(run.output_correct);
}

TEST(Strawman, CorruptedByAdversarialBatchReordering) {
  // The Lemma 5.1 adversary delivers each window in canonical payload order,
  // destroying the positional information. The output is wrong — and, worse,
  // the corruption is silent (no error is raised).
  const auto input = core::make_random_input(64, 3);
  const auto cfg = config_for(input);
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Strawman, cfg, Environment::adversarial_fast());
  EXPECT_TRUE(run.result.quiescent) << "the run completes normally…";
  EXPECT_FALSE(run.output_correct) << "…but the data is corrupted";
  // The verifier flags the prefix violation even though the protocol didn't.
  const auto verdict = core::verify_trace(run.result.trace, cfg.params, input);
  EXPECT_FALSE(verdict.ok());
  EXPECT_FALSE(verdict.clean_of(core::ViolationKind::OutputNotPrefix));
}

TEST(Strawman, BetaSurvivesTheExactSameAdversary) {
  // Control experiment: identical input, identical environment, only the
  // encoding differs.
  const auto input = core::make_random_input(64, 3);
  const auto cfg = config_for(input);
  const core::ProtocolRun beta =
      core::run_protocol(ProtocolKind::Beta, cfg, Environment::adversarial_fast());
  EXPECT_TRUE(beta.output_correct);
}

TEST(Strawman, SortedBlocksSurviveByAccident) {
  // An input whose every block happens to encode to an already-sorted symbol
  // sequence is unaffected by canonical-order delivery — corruption is
  // input-dependent, which is what makes such bugs nasty.
  const auto cfg = config_for(core::make_constant_input(32, 0));
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Strawman, cfg, Environment::adversarial_fast());
  EXPECT_TRUE(run.output_correct) << "all-zero blocks are sort-invariant";
}

/// The payloads of the transmitter's first `count` sends.
std::vector<std::uint32_t> first_sends(StrawmanTransmitter& t, std::size_t count) {
  std::vector<std::uint32_t> payloads;
  ioa::LocalStep taken;
  while (payloads.size() < count && t.step(taken)) {
    if (taken.action.kind == ioa::ActionKind::Send) payloads.push_back(taken.action.packet.payload);
  }
  return payloads;
}

TEST(Strawman, SendsEachSymbolComputedFromX) {
  // b = 2 bits per symbol, δ = 4: 10 bits fill one block and two symbols
  // of the next, which is zero-padded.
  StrawmanTransmitter t{config_for({0, 1, 1, 0, 1, 1, 0, 0, 1, 0})};
  EXPECT_EQ(first_sends(t, 8), (std::vector<std::uint32_t>{1, 2, 3, 0, 2, 0, 0, 0}));
  EXPECT_TRUE(t.transmission_complete());
}

TEST(Strawman, TakesBlocksUpToTheInFlightCeilingWithoutStoringThem) {
  // Nothing is materialized per symbol: the largest block builds at once
  // for an 8-bit X and sends X's symbols first, then padding.
  StrawmanTransmitter t{config_for({1, 1, 0, 1, 1, 0, 0, 1}, 4, 1, 1,
                                   StrawmanTransmitter::kMaxBlock)};
  EXPECT_EQ(t.block_size(), StrawmanTransmitter::kMaxBlock);
  EXPECT_EQ(first_sends(t, 6), (std::vector<std::uint32_t>{3, 1, 2, 1, 0, 0}));
  EXPECT_FALSE(t.transmission_complete());
  EXPECT_THROW(StrawmanTransmitter{config_for({1}, 4, 1, 1, StrawmanTransmitter::kMaxBlock + 1)},
               ContractViolation);
}

}  // namespace
}  // namespace rstp::protocols
