// Tests for the protocol factory and the kind metadata.
#include "rstp/protocols/factory.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <sstream>

#include "rstp/common/check.h"
#include "rstp/core/effort.h"
#include "rstp/est/estimator.h"
#include "rstp/protocols/alpha.h"
#include "rstp/protocols/altbit.h"
#include "rstp/protocols/beta.h"
#include "rstp/protocols/block_planner.h"
#include "rstp/protocols/gamma.h"
#include "rstp/protocols/gamma_windowed.h"
#include "rstp/protocols/indexed.h"
#include "rstp/protocols/strawman.h"

namespace rstp::protocols {
namespace {

ProtocolConfig valid_config(ProtocolKind kind) {
  ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 8);
  cfg.k = kind == ProtocolKind::Indexed ? 64u : 8u;
  cfg.input = core::make_random_input(16, 1);
  return cfg;
}

TEST(Factory, EveryKindConstructs) {
  for (const auto kind : kAllProtocolKinds) {
    const ProtocolInstance instance = make_protocol(kind, valid_config(kind));
    ASSERT_NE(instance.transmitter, nullptr) << to_string(kind);
    ASSERT_NE(instance.receiver, nullptr) << to_string(kind);
    EXPECT_FALSE(instance.transmitter->name().empty());
    EXPECT_FALSE(instance.receiver->name().empty());
    // Fresh automata are in their start states: nothing transmitted yet.
    EXPECT_FALSE(instance.transmitter->transmission_complete()) << to_string(kind);
    EXPECT_TRUE(instance.receiver->output().empty()) << to_string(kind);
  }
}

TEST(Factory, NamesAreUniqueAndStable) {
  std::set<std::string> names;
  for (const auto kind : kAllProtocolKinds) {
    names.insert(std::string{to_string(kind)});
  }
  EXPECT_EQ(names.size(), std::size(kAllProtocolKinds));
  EXPECT_EQ(to_string(ProtocolKind::Alpha), "alpha");
  EXPECT_EQ(to_string(ProtocolKind::Beta), "beta");
  EXPECT_EQ(to_string(ProtocolKind::Gamma), "gamma");
  EXPECT_EQ(to_string(ProtocolKind::AltBit), "altbit");
  EXPECT_EQ(to_string(ProtocolKind::Strawman), "strawman");
  EXPECT_EQ(to_string(ProtocolKind::Indexed), "indexed");
  EXPECT_EQ(to_string(ProtocolKind::WindowedGamma), "gammaw");
}

TEST(Factory, StreamInsertionMatchesToString) {
  std::ostringstream os;
  os << ProtocolKind::Gamma;
  EXPECT_EQ(os.str(), "gamma");
}

TEST(Factory, RPassivePartitionMatchesThePaper) {
  // r-passive = the receiver sends no packets (P^rt = ∅).
  EXPECT_TRUE(is_r_passive(ProtocolKind::Alpha));
  EXPECT_TRUE(is_r_passive(ProtocolKind::Beta));
  EXPECT_TRUE(is_r_passive(ProtocolKind::Strawman));
  EXPECT_TRUE(is_r_passive(ProtocolKind::Indexed));
  EXPECT_FALSE(is_r_passive(ProtocolKind::Gamma));
  EXPECT_FALSE(is_r_passive(ProtocolKind::AltBit));
  EXPECT_FALSE(is_r_passive(ProtocolKind::WindowedGamma));
}

TEST(Factory, RPassiveMetadataMatchesBehaviour) {
  // Dynamic check: a full worst-case run of an r-passive protocol must have
  // zero receiver sends; an active one must have at least one.
  for (const auto kind : kAllProtocolKinds) {
    if (kind == ProtocolKind::Strawman) continue;  // corrupts under some envs; skip
    const core::ProtocolRun run =
        core::run_protocol(kind, valid_config(kind), core::Environment::worst_case());
    ASSERT_TRUE(run.output_correct) << to_string(kind);
    if (is_r_passive(kind)) {
      EXPECT_EQ(run.result.receiver_sends, 0u) << to_string(kind);
    } else {
      EXPECT_GT(run.result.receiver_sends, 0u) << to_string(kind);
    }
  }
}

TEST(Factory, InvalidConfigurationsRejected) {
  ProtocolConfig bad_k = valid_config(ProtocolKind::Beta);
  bad_k.k = 1;
  EXPECT_THROW((void)make_protocol(ProtocolKind::Beta, bad_k), ContractViolation);

  ProtocolConfig bad_bits = valid_config(ProtocolKind::Beta);
  bad_bits.input = {0, 1, 2};
  EXPECT_THROW((void)make_protocol(ProtocolKind::Beta, bad_bits), ContractViolation);

  ProtocolConfig bad_override = valid_config(ProtocolKind::Beta);
  bad_override.block_size_override = 0;
  EXPECT_THROW((void)make_protocol(ProtocolKind::Beta, bad_override), ContractViolation);

  ProtocolConfig small_indexed = valid_config(ProtocolKind::Indexed);
  small_indexed.k = 8;  // < 2·16
  EXPECT_THROW((void)make_protocol(ProtocolKind::Indexed, small_indexed), ContractViolation);

  ProtocolConfig odd_windowed = valid_config(ProtocolKind::WindowedGamma);
  odd_windowed.k = 7;
  EXPECT_THROW((void)make_protocol(ProtocolKind::WindowedGamma, odd_windowed),
               ContractViolation);
}

TEST(Factory, EveryConstructorRejectsAnInvalidConfig) {
  // make_protocol leaves validation to the constructors, so each of the 14
  // must reject an invalid config on its own.
  using Build = std::function<void(const ProtocolConfig&)>;
  const std::pair<const char*, Build> constructors[] = {
      {"alpha_t", [](const ProtocolConfig& c) { AlphaTransmitter{c}; }},
      {"alpha_r", [](const ProtocolConfig& c) { AlphaReceiver{c}; }},
      {"beta_t", [](const ProtocolConfig& c) { BetaTransmitter{c}; }},
      {"beta_r", [](const ProtocolConfig& c) { BetaReceiver{c}; }},
      {"gamma_t", [](const ProtocolConfig& c) { GammaTransmitter{c}; }},
      {"gamma_r", [](const ProtocolConfig& c) { GammaReceiver{c}; }},
      {"altbit_t", [](const ProtocolConfig& c) { AltBitTransmitter{c}; }},
      {"altbit_r", [](const ProtocolConfig& c) { AltBitReceiver{c}; }},
      {"strawman_t", [](const ProtocolConfig& c) { StrawmanTransmitter{c}; }},
      {"strawman_r", [](const ProtocolConfig& c) { StrawmanReceiver{c}; }},
      {"indexed_t", [](const ProtocolConfig& c) { IndexedTransmitter{c}; }},
      {"indexed_r", [](const ProtocolConfig& c) { IndexedReceiver{c}; }},
      {"gammaw_t", [](const ProtocolConfig& c) { WindowedGammaTransmitter{c}; }},
      {"gammaw_r", [](const ProtocolConfig& c) { WindowedGammaReceiver{c}; }},
  };
  ProtocolConfig good;
  good.params = core::TimingParams::make(1, 2, 8);
  good.k = 64;
  good.input = core::make_random_input(16, 1);
  ProtocolConfig bad_bits = good;
  bad_bits.input[3] = 2;
  ProtocolConfig bad_k = good;
  bad_k.k = 1;
  ProtocolConfig bad_params = good;
  bad_params.params.c1 = Duration{3};  // c1 > c2
  for (const auto& [name, build] : constructors) {
    EXPECT_NO_THROW(build(good)) << name;
    EXPECT_THROW(build(bad_bits), ContractViolation) << name;
    EXPECT_THROW(build(bad_k), ContractViolation) << name;
    EXPECT_THROW(build(bad_params), ContractViolation) << name;
  }
  // The planner constructors take a planner of their own discipline only.
  EXPECT_THROW(BetaTransmitter{std::shared_ptr<BlockPlanner>{}}, ContractViolation);
  EXPECT_THROW(GammaReceiver{block_planner_for(BlockPlanner::Discipline::TimedBlocks, good)},
               ContractViolation);
  EXPECT_NO_THROW(BetaReceiver{block_planner_for(BlockPlanner::Discipline::TimedBlocks, good)});
}

std::shared_ptr<BlockPlanner> live_planner(BlockPlanner::Discipline discipline,
                                           const ProtocolConfig& cfg) {
  return std::make_shared<BlockPlanner>(
      discipline, cfg.k, cfg.input, std::make_shared<est::TimingEstimator>(est::EstimatorConfig{}));
}

TEST(Factory, PlannerDrivesOnlyBetaAndGamma) {
  ProtocolConfig beta = valid_config(ProtocolKind::Beta);
  beta.planner = live_planner(BlockPlanner::Discipline::TimedBlocks, beta);
  EXPECT_NO_THROW((void)make_protocol(ProtocolKind::Beta, beta));
  ProtocolConfig gamma = valid_config(ProtocolKind::Gamma);
  gamma.planner = live_planner(BlockPlanner::Discipline::AckedBlocks, gamma);
  EXPECT_NO_THROW((void)make_protocol(ProtocolKind::Gamma, gamma));

  for (const auto kind : kAllProtocolKinds) {
    if (kind == ProtocolKind::Beta || kind == ProtocolKind::Gamma) continue;
    ProtocolConfig cfg = valid_config(kind);
    cfg.planner = live_planner(BlockPlanner::Discipline::TimedBlocks, cfg);
    EXPECT_THROW((void)make_protocol(kind, cfg), ContractViolation) << to_string(kind);
  }
}

TEST(Factory, MismatchedPlannerRejected) {
  // Discipline: beta reads timed blocks, so an acked (gamma) plan is refused.
  ProtocolConfig wrong_discipline = valid_config(ProtocolKind::Beta);
  wrong_discipline.planner = live_planner(BlockPlanner::Discipline::AckedBlocks, wrong_discipline);
  EXPECT_THROW((void)make_protocol(ProtocolKind::Beta, wrong_discipline), ContractViolation);

  // Alphabet: the planner encodes over its own k, which must be config.k.
  ProtocolConfig wrong_k = valid_config(ProtocolKind::Gamma);
  wrong_k.planner = live_planner(BlockPlanner::Discipline::AckedBlocks, wrong_k);
  wrong_k.k = 4;
  EXPECT_THROW((void)make_protocol(ProtocolKind::Gamma, wrong_k), ContractViolation);

  // Input: the planner encodes its own copy of X, which must be config.input.
  ProtocolConfig wrong_input = valid_config(ProtocolKind::Beta);
  wrong_input.planner = live_planner(BlockPlanner::Discipline::TimedBlocks, wrong_input);
  wrong_input.input[0] ^= 1;
  EXPECT_THROW((void)make_protocol(ProtocolKind::Beta, wrong_input), ContractViolation);
}

TEST(Factory, PaperKindsAreASubsetOfAllKinds) {
  for (const auto kind : kPaperProtocolKinds) {
    bool found = false;
    for (const auto all : kAllProtocolKinds) {
      found = found || all == kind;
    }
    EXPECT_TRUE(found) << to_string(kind);
  }
}

}  // namespace
}  // namespace rstp::protocols
