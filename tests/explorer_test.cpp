// Tests for the bounded-exhaustive explorer — and, through it, exhaustive
// verification of the paper's protocols over ALL admissible delivery
// schedules and reorderings for small instances (fixed per-process periods).
#include "rstp/ioa/explorer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "rstp/core/effort.h"
#include "rstp/core/verify.h"
#include "rstp/general/run.h"
#include "rstp/common/check.h"
#include "rstp/protocols/base.h"
#include "rstp/protocols/factory.h"

namespace rstp::ioa {
namespace {

using protocols::ProtocolConfig;
using protocols::ProtocolKind;
using protocols::ReceiverBase;

ProtocolConfig config_for(std::vector<Bit> input, std::uint32_t k, std::int64_t d) {
  ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 1, d);
  cfg.k = k;
  cfg.input = std::move(input);
  return cfg;
}

/// Safety: Y is a prefix of X. Completion: Y == X.
Explorer::Predicate prefix_of(const std::vector<Bit>& input) {
  return [input](const Automaton& /*t*/, const Automaton& r) {
    const auto& receiver = dynamic_cast<const ReceiverBase&>(r);
    const auto& out = receiver.output();
    if (out.size() > input.size()) return false;
    return std::equal(out.begin(), out.end(), input.begin());
  };
}

Explorer::Predicate equals(const std::vector<Bit>& input) {
  return [input](const Automaton& /*t*/, const Automaton& r) {
    return dynamic_cast<const ReceiverBase&>(r).output() == input;
  };
}

ExplorerResult explore_protocol(ProtocolKind kind, const std::vector<Bit>& input, std::uint32_t k,
                                std::int64_t d, ExplorerConfig config = {}) {
  const ProtocolConfig cfg = config_for(input, k, d);
  const auto instance = protocols::make_protocol(kind, cfg);
  config.d = d;
  Explorer explorer{*instance.transmitter, *instance.receiver, config, prefix_of(input),
                    equals(input)};
  return explorer.run();
}

TEST(Explorer, AlphaVerifiedExhaustively) {
  const std::vector<Bit> input = {1, 0, 1};
  const ExplorerResult r = explore_protocol(ProtocolKind::Alpha, input, 2, 2);
  EXPECT_TRUE(r.verified()) << r.first_violation;
  EXPECT_GT(r.terminal_states, 0u);
  EXPECT_GT(r.distinct_states, 10u);
}

TEST(Explorer, BetaVerifiedExhaustively) {
  // d=2 → δ=2 blocks; k=3 → μ_3(2)=6 → B=2 bits per block; 4 bits = 2 blocks.
  const std::vector<Bit> input = {1, 0, 0, 1};
  const ExplorerResult r = explore_protocol(ProtocolKind::Beta, input, 3, 2);
  EXPECT_TRUE(r.verified()) << r.first_violation;
  // Exact state-space pins: the explorer dedups by snapshot(), so these
  // counts change if a snapshot merges or splits states. `transitions`
  // counts single moves (one delivery or one process step) into any state,
  // boundary or within an instant.
  EXPECT_EQ(r.distinct_states, 23u);
  EXPECT_EQ(r.terminal_states, 2u);
  EXPECT_EQ(r.transitions, 58u);
}

TEST(Explorer, GammaVerifiedExhaustively) {
  // d=2 → δ2=2; k=3 → B=2; 4 bits = 2 blocks, each gated by 2 acks.
  const std::vector<Bit> input = {0, 1, 1, 0};
  const ExplorerResult r = explore_protocol(ProtocolKind::Gamma, input, 3, 2);
  EXPECT_TRUE(r.verified()) << r.first_violation;
  EXPECT_EQ(r.distinct_states, 46u);
  EXPECT_EQ(r.terminal_states, 1u);
  EXPECT_EQ(r.transitions, 180u);
}

TEST(Explorer, AltBitVerifiedExhaustively) {
  const std::vector<Bit> input = {1, 1, 0};
  const ExplorerResult r = explore_protocol(ProtocolKind::AltBit, input, 4, 2);
  EXPECT_TRUE(r.verified()) << r.first_violation;
}

TEST(Explorer, StrawmanFailsExhaustiveSafety) {
  // The positional strawman is NOT safe under all reorderings: the explorer
  // finds a corrupting schedule that random simulation might miss.
  // Input chosen so at least one block encodes to a non-sorted sequence.
  const std::vector<Bit> input = {0, 1, 0, 0};  // block symbols (01,00) = (1,0): unsorted
  const ExplorerResult r = explore_protocol(ProtocolKind::Strawman, input, 2, 2);
  EXPECT_FALSE(r.safety_held && r.all_terminals_complete)
      << "the explorer must find the reordering that corrupts positional coding";
}

TEST(Explorer, EveryExecutionReachesCompletion) {
  // all_terminals_complete is meaningful: terminal states exist and each has
  // Y == X even under the weirdest admissible schedules.
  const std::vector<Bit> input = {1, 0};
  for (const auto kind : protocols::kPaperProtocolKinds) {
    const ExplorerResult r = explore_protocol(kind, input, 2, 2);
    EXPECT_TRUE(r.verified()) << protocols::to_string(kind) << ": " << r.first_violation;
    EXPECT_GT(r.terminal_states, 0u) << protocols::to_string(kind);
  }
}

TEST(Explorer, LargerDelayGrowsStateSpace) {
  const std::vector<Bit> input = {1, 0};
  const ExplorerResult d1 = explore_protocol(ProtocolKind::Alpha, input, 2, 1);
  const ExplorerResult d3 = explore_protocol(ProtocolKind::Alpha, input, 2, 3);
  EXPECT_TRUE(d1.verified());
  EXPECT_TRUE(d3.verified());
  EXPECT_GT(d3.distinct_states, d1.distinct_states);
}

TEST(Explorer, StateCapReportsExhaustion) {
  ExplorerConfig tight;
  tight.max_states = 5;
  const ProtocolConfig cfg = config_for({1, 0, 1, 0}, 2, 2);
  const auto instance = protocols::make_protocol(ProtocolKind::Beta, cfg);
  tight.d = 2;
  Explorer explorer{*instance.transmitter, *instance.receiver, tight, nullptr, nullptr};
  const ExplorerResult r = explorer.run();
  EXPECT_TRUE(r.exhausted_caps);
  EXPECT_FALSE(r.verified());
}

TEST(Explorer, StateCapBoundsTheWork) {
  // γ at d = 40 has tens of packets in flight at once; the state cap counts
  // every memoized state, each with at most e + 2 successors, so a small cap
  // ends the search quickly however wide the branching.
  ExplorerConfig config;
  config.max_states = 10'000;
  const ExplorerResult r = explore_protocol(ProtocolKind::Gamma, {1, 1, 1, 1}, 4, 40, config);
  EXPECT_TRUE(r.exhausted_caps);
  EXPECT_FALSE(r.verified());
  EXPECT_TRUE(r.safety_held) << r.first_violation;
}

TEST(Explorer, CounterexampleIsAGenuineGoodExecution) {
  // The strawman's violation comes with a concrete execution. Feeding it to
  // the independent trace verifier must show: timing and channel conduct are
  // CLEAN (the execution is admissible — this is the crucial part: the bug
  // is the protocol's, not the adversary's), while the output property is
  // broken.
  const std::vector<Bit> input = {0, 1, 0, 0};
  const ProtocolConfig cfg = config_for(input, 2, 2);
  const auto instance = protocols::make_protocol(ProtocolKind::Strawman, cfg);
  ExplorerConfig config;
  config.d = 2;
  Explorer explorer{*instance.transmitter, *instance.receiver, config, prefix_of(input),
                    equals(input)};
  const ExplorerResult r = explorer.run();
  ASSERT_FALSE(r.safety_held && r.all_terminals_complete);
  ASSERT_FALSE(r.counterexample.empty());

  const core::VerifyResult verdict =
      core::verify_trace(r.counterexample, cfg.params, input,
                         {.require_complete = false, .require_drained = false});
  EXPECT_TRUE(verdict.clean_of(core::ViolationKind::StepGapTooSmall)) << verdict;
  EXPECT_TRUE(verdict.clean_of(core::ViolationKind::StepGapTooLarge)) << verdict;
  EXPECT_TRUE(verdict.clean_of(core::ViolationKind::RecvWithoutSend)) << verdict;
  EXPECT_TRUE(verdict.clean_of(core::ViolationKind::DeliveryTooLate)) << verdict;
  // The safety predicate failed on receiver OUTPUT state; if the violation
  // was a wrong write, the verifier sees it too.
  if (!r.safety_held) {
    EXPECT_FALSE(verdict.clean_of(core::ViolationKind::OutputNotPrefix)) << verdict;
  }
}

TEST(Explorer, StrawmanArrivalOrderIsState) {
  // X = 01 at d = 2, k = 4: one block of two 2-bit symbols, (01, 00). The
  // receiver's state holds the block's arrivals in order; a snapshot that
  // keeps only their count merges "1 then 0" with "0 then 1" and reports
  // this instance safe. The counterexample must be a good(A) execution whose only fault is
  // the output.
  const std::vector<Bit> input = {0, 1};
  const ProtocolConfig cfg = config_for(input, 4, 2);
  const ExplorerResult r = explore_protocol(ProtocolKind::Strawman, input, 4, 2);
  ASSERT_FALSE(r.safety_held) << "the reordered block must be found";
  ASSERT_FALSE(r.counterexample.empty());
  const core::VerifyResult verdict =
      core::verify_trace(r.counterexample, cfg.params, input,
                         {.require_complete = false, .require_drained = false});
  EXPECT_FALSE(verdict.ok());
  for (const core::Violation& v : verdict.violations) {
    EXPECT_EQ(v.kind, core::ViolationKind::OutputNotPrefix) << verdict;
  }
}

TEST(Explorer, NoCounterexampleWhenVerified) {
  const std::vector<Bit> input = {1, 0};
  const ExplorerResult r = explore_protocol(ProtocolKind::Beta, input, 3, 2);
  ASSERT_TRUE(r.verified());
  EXPECT_TRUE(r.counterexample.empty());
  EXPECT_TRUE(r.first_violation.empty());
  EXPECT_EQ(r.distinct_states, 12u);
  EXPECT_EQ(r.terminal_states, 2u);
  EXPECT_EQ(r.transitions, 27u);
}

TEST(Explorer, AsymmetricRatesVerifiedExhaustively) {
  // §7 fragment: the transmitter steps every 1 tick, the receiver every 2
  // (or vice versa); d = 2. Protocols are built with each side's own law.
  const std::vector<Bit> input = {1, 0};
  struct Case {
    std::int64_t t_period;
    std::int64_t r_period;
  };
  for (const Case& c : {Case{1, 2}, Case{2, 1}}) {
    for (const auto kind :
         {ProtocolKind::Alpha, ProtocolKind::Beta, ProtocolKind::Gamma, ProtocolKind::AltBit}) {
      // Build with the general model so block/wait sizes follow the
      // transmitter's own step law.
      general::GeneralTimingParams g{Duration{c.t_period}, Duration{c.t_period},
                                     Duration{c.r_period}, Duration{c.r_period},
                                     Duration{0},          Duration{2}};
      const protocols::ProtocolConfig cfg =
          general::make_general_config(kind, g, 3, input);
      const auto instance = protocols::make_protocol(kind, cfg);
      ExplorerConfig config;
      config.d = 2;
      config.t_period = c.t_period;
      config.r_period = c.r_period;
      Explorer explorer{*instance.transmitter, *instance.receiver, config, prefix_of(input),
                        equals(input)};
      const ExplorerResult r = explorer.run();
      EXPECT_TRUE(r.verified())
          << protocols::to_string(kind) << " t_period=" << c.t_period
          << " r_period=" << c.r_period << ": " << r.first_violation;
      EXPECT_GT(r.terminal_states, 0u) << protocols::to_string(kind);
    }
  }
}

TEST(Explorer, PeriodValidation) {
  const ProtocolConfig cfg = config_for({1}, 2, 1);
  const auto instance = protocols::make_protocol(ProtocolKind::Alpha, cfg);
  ExplorerConfig config;
  config.d = 1;
  config.t_period = 0;
  EXPECT_THROW(Explorer(*instance.transmitter, *instance.receiver, config, nullptr, nullptr),
               ContractViolation);
}

TEST(Explorer, NullPredicatesJustExplore) {
  const ProtocolConfig cfg = config_for({1}, 2, 1);
  const auto instance = protocols::make_protocol(ProtocolKind::Alpha, cfg);
  ExplorerConfig config;
  config.d = 1;
  Explorer explorer{*instance.transmitter, *instance.receiver, config, nullptr, nullptr};
  const ExplorerResult r = explorer.run();
  EXPECT_TRUE(r.safety_held);
  EXPECT_TRUE(r.all_terminals_complete);
  EXPECT_GT(r.transitions, 0u);
}

/// One row per (protocol, d, k, X) with d in 1–3, k in 2–4 and X of one to
/// four bits, skipping the (protocol, k) pairs a protocol does not accept:
/// the explorer's verdict and its boundary-state counts for each.
std::string explore_grid() {
  std::ostringstream os;
  os << "# protocol d k X | boundary states, terminals, safe, complete, caps\n";
  for (const auto kind : protocols::kAllProtocolKinds) {
    for (std::int64_t d = 1; d <= 3; ++d) {
      for (std::uint32_t k = 2; k <= 4; ++k) {
        if (kind == ProtocolKind::WindowedGamma && k != 4) continue;  // even k >= 4
        for (std::size_t n = 1; n <= 4; ++n) {
          if (kind == ProtocolKind::Indexed && k < 2 * n) continue;
          for (std::uint32_t x = 0; x < (1u << n); ++x) {
            std::vector<Bit> input;
            for (std::size_t i = n; i-- > 0;) input.push_back(static_cast<Bit>((x >> i) & 1u));
            const ExplorerResult r = explore_protocol(kind, input, k, d);
            os << protocols::to_string(kind) << ' ' << d << ' ' << k << ' ';
            for (const Bit b : input) os << static_cast<int>(b);
            os << " | " << r.distinct_states << ' ' << r.terminal_states << ' '
               << (r.safety_held ? "safe" : "UNSAFE") << ' '
               << (r.all_terminals_complete ? "complete" : "INCOMPLETE") << ' '
               << (r.exhausted_caps ? "CAPPED" : "uncapped") << '\n';
          }
        }
      }
    }
  }
  return os.str();
}

TEST(Explorer, GridMatchesGolden) {
  // The explorer's verdicts and boundary-state counts over a small grid of
  // every protocol, against tests/golden/explore_grid.txt. A change to how
  // the explorer searches must leave every row as it is; a deliberate
  // change re-records the file from the copy this test writes.
  const std::string derived = explore_grid();
  const std::string fresh = ::testing::TempDir() + "/explore_grid.txt";
  std::ofstream{fresh} << derived;
  std::ifstream in{RSTP_GOLDEN_EXPLORE_GRID_PATH};
  ASSERT_TRUE(in.good()) << "cannot open " << RSTP_GOLDEN_EXPLORE_GRID_PATH;
  std::istringstream got{derived};
  std::string want_line;
  std::string got_line;
  std::size_t line = 0;
  while (true) {
    const bool more_want = static_cast<bool>(std::getline(in, want_line));
    const bool more_got = static_cast<bool>(std::getline(got, got_line));
    ++line;
    if (!more_want && !more_got) break;
    ASSERT_EQ(more_want ? want_line : "<end>", more_got ? got_line : "<end>")
        << "line " << line << " differs; the derived grid is in " << fresh;
  }
}

}  // namespace
}  // namespace rstp::ioa
