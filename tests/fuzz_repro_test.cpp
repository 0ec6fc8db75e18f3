// End-to-end fuzzer guarantees (label: fuzz):
//   * the checked-in golden failure (β mutant with a 1-step inter-block wait)
//     is rediscovered within a small fixed budget;
//   * its checked-in repro document replays to the identical verdict, bitwise;
//   * a freshly emitted repro round-trips through text and replays;
//   * the checked-in seed corpus loads through read_fuzz_corpus and runs
//     clean on the real protocol.
// Paths are injected by CMake: RSTP_GOLDEN_REPRO_PATH, RSTP_FUZZ_CORPUS_DIR.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "rstp/sim/fuzz.h"

namespace rstp::sim {
namespace {

TEST(FuzzRepro, GoldenBrokenBetaReplaysBitwise) {
  std::ifstream in{RSTP_GOLDEN_REPRO_PATH};
  ASSERT_TRUE(in) << "missing golden repro: " << RSTP_GOLDEN_REPRO_PATH;
  const FuzzRepro repro = parse_fuzz_repro(in);
  EXPECT_EQ(repro.fuzz_case.protocol, protocols::ProtocolKind::Beta);
  EXPECT_EQ(repro.fuzz_case.wait_override, 1u);
  EXPECT_TRUE(repro.failed);

  const ReplayOutcome outcome = replay_fuzz_repro(repro);
  EXPECT_TRUE(outcome.reproduced) << outcome.mismatch;
  EXPECT_TRUE(outcome.result.failed);
  ASSERT_FALSE(outcome.result.unexcused.empty());
  // The mutant's signature: wrong output, not a channel-law artifact.
  EXPECT_EQ(outcome.result.unexcused.front().kind, core::ViolationKind::OutputNotPrefix);
}

TEST(FuzzRepro, FuzzerFindsTheBrokenBetaWithinBudget) {
  // The exact configuration documented in the golden file's header. The
  // budget is part of the determinism contract: same seed, same budget, the
  // bug is found every time, on any machine, at any --jobs.
  FuzzSpec spec;
  spec.protocol = protocols::ProtocolKind::Beta;
  spec.seed = 1;
  spec.budget = 64;
  spec.wait_override = 1;
  const FuzzResult result = run_fuzz(spec);
  ASSERT_FALSE(result.ok()) << "fuzzer missed the checked-in mutant bug";
  const FuzzFailure& failure = result.failures.front();
  EXPECT_TRUE(failure.result.failed);
  EXPECT_EQ(failure.minimized.wait_override, 1u);

  // The found failure, serialized and re-parsed, replays to the same verdict.
  std::stringstream buffer;
  write_fuzz_repro(buffer, failure.minimized, failure.result);
  const FuzzRepro repro = parse_fuzz_repro(buffer);
  const ReplayOutcome outcome = replay_fuzz_repro(repro);
  EXPECT_TRUE(outcome.reproduced) << outcome.mismatch;
}

TEST(FuzzRepro, ReplayDetectsATamperedVerdict) {
  std::ifstream in{RSTP_GOLDEN_REPRO_PATH};
  ASSERT_TRUE(in);
  FuzzRepro repro = parse_fuzz_repro(in);
  repro.output_hash ^= 1;  // recorded verdict no longer matches the run
  const ReplayOutcome outcome = replay_fuzz_repro(repro);
  EXPECT_FALSE(outcome.reproduced);
  EXPECT_NE(outcome.mismatch.find("output_hash"), std::string::npos) << outcome.mismatch;
}

TEST(FuzzRepro, SeedCorpusParsesAndRunsCleanOnCorrectBeta) {
  const std::vector<FuzzCase> corpus = read_fuzz_corpus(RSTP_FUZZ_CORPUS_DIR);
  EXPECT_GE(corpus.size(), 3u) << "seed corpus went missing";
  for (const FuzzCase& c : corpus) {
    SCOPED_TRACE(c.input_seed);
    const FuzzCaseResult r = run_fuzz_case(c);
    EXPECT_FALSE(r.invalid);
    EXPECT_FALSE(r.failed) << r.failure;  // correct β: faults excused or absent
  }
}

TEST(FuzzRepro, CorpusSeededCampaignStaysDeterministic) {
  // Seeding through spec.corpus_seeds must not disturb the determinism
  // guarantee (the CLI's --corpus path loads it through the same
  // read_fuzz_corpus).
  FuzzSpec spec;
  spec.protocol = protocols::ProtocolKind::Beta;
  spec.seed = 5;
  spec.budget = 32;
  spec.corpus_seeds = read_fuzz_corpus(RSTP_FUZZ_CORPUS_DIR);
  ASSERT_GE(spec.corpus_seeds.size(), 3u);

  spec.jobs = 1;
  const FuzzResult serial = run_fuzz(spec);
  spec.jobs = 4;
  const FuzzResult parallel = run_fuzz(spec);
  EXPECT_EQ(serial.executed, parallel.executed);
  EXPECT_EQ(serial.coverage_hash, parallel.coverage_hash);
  EXPECT_EQ(serial.corpus, parallel.corpus);
  EXPECT_TRUE(serial.ok());
}

}  // namespace
}  // namespace rstp::sim
