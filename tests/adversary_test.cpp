// Adversary synthesis suite (ctest -L adversary): pins the three guarantees
// sim/adversary.h advertises — bitwise determinism across --jobs, the
// hand-coded-adversary floor (best ≥ Environment::worst_case() on every
// cell), and artifact replayability — plus the checked-in gap baseline
// (tests/golden/adversary_baseline.jsonl) that turns the §5 lower-bound gap
// into a regression-gated number. Paths are injected by CMake as
// RSTP_GOLDEN_ADVERSARY_BASELINE_PATH / RSTP_GOLDEN_ADVERSARY_ARTIFACT_PATH.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/core/effort.h"
#include "rstp/obs/diff.h"
#include "rstp/obs/sinks.h"
#include "rstp/sim/adversary.h"

namespace rstp::sim {
namespace {

AdversarySpec quick_spec(unsigned jobs) {
  AdversarySpec spec;
  spec.grid = quick_adversary_grid();
  spec.seed = 1;
  spec.budget = 24;
  spec.jobs = jobs;
  return spec;
}

/// The invocation that produced the checked-in baseline:
/// `rstp adversary --grid golden --budget 48 --seed 1`. GoldenGapBaseline.*
/// hold its rerun to the file exactly.
AdversarySpec golden_spec(unsigned jobs) {
  AdversarySpec spec;
  spec.grid = golden_adversary_grid();
  spec.seed = 1;
  spec.budget = 48;
  spec.jobs = jobs;
  return spec;
}

TEST(AdversarySearch, BitwiseIdenticalAcrossJobs) {
  // The determinism identity mirrors fuzz_repro_test: the worker count may
  // only change wall-clock, never a single result bit.
  const AdversaryResult one = run_adversary_search(quick_spec(1));
  const AdversaryResult three = run_adversary_search(quick_spec(3));
  const AdversaryResult eight = run_adversary_search(quick_spec(8));
  EXPECT_EQ(one.result_hash, three.result_hash);
  EXPECT_EQ(one.result_hash, eight.result_hash);
  ASSERT_EQ(one.cells.size(), three.cells.size());
  for (std::size_t i = 0; i < one.cells.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(one.cells[i].best.last_send, three.cells[i].best.last_send);
    EXPECT_EQ(one.cells[i].best.output_hash, three.cells[i].best.output_hash);
    EXPECT_EQ(one.cells[i].best.coverage_hash, three.cells[i].best.coverage_hash);
    EXPECT_EQ(one.cells[i].best_genome, three.cells[i].best_genome);
    EXPECT_EQ(one.cells[i].executed, three.cells[i].executed);
  }
}

TEST(AdversarySearch, SynthesizedAdversaryNeverFallsBelowTheHandCodedOne) {
  // Generation 0 seeds the population with hand_equivalent_genome() and the
  // elite is monotone, so this must hold for any budget — including the
  // degenerate budget that only runs the seeds.
  const AdversaryResult result = run_adversary_search(quick_spec(2));
  ASSERT_FALSE(result.cells.empty());
  EXPECT_TRUE(result.all_beat_hand());
  for (const AdversaryCellResult& cell : result.cells) {
    SCOPED_TRACE(std::string(protocols::to_string(cell.cell.protocol)));
    EXPECT_TRUE(cell.best.fit());
    EXPECT_GE(cell.best.last_send, cell.hand_last_send);
    EXPECT_GT(cell.lower_bound, 0.0);
    EXPECT_GE(cell.gap_ratio, 1.0);  // empirical effort sits above the bound
    EXPECT_GT(cell.executed, 0u);
    EXPECT_LE(cell.executed, quick_spec(2).budget);
  }
}

TEST(AdversarySearch, HandEquivalentGenomeReproducesWorstCaseEnvironment) {
  // The genome encoding of Environment::worst_case() (SlowFixed/SlowFixed/
  // MaxDelay) must produce the exact run the effort layer measures — the
  // floor the search is gated against is the paper's hand-built adversary,
  // not an approximation of it.
  for (const AdversaryCell& cell : quick_adversary_grid()) {
    SCOPED_TRACE(std::string(protocols::to_string(cell.protocol)));
    const std::uint64_t input_seed = 77;
    const GenomeEval eval =
        evaluate_genome(cell, input_seed, hand_equivalent_genome(cell.params));
    ASSERT_TRUE(eval.fit());

    protocols::ProtocolConfig cfg;
    cfg.params = cell.params;
    cfg.k = cell.k;
    const std::size_t bits = cell.protocol == protocols::ProtocolKind::Indexed
                                 ? 2 * cell.input_bits
                                 : cell.input_bits;
    cfg.input = core::make_random_input(bits, input_seed);
    const core::ProtocolRun run = core::run_protocol(
        cell.protocol, cfg, core::Environment::worst_case(), /*record_trace=*/false);
    ASSERT_TRUE(run.output_correct);
    ASSERT_TRUE(run.result.last_transmitter_send.has_value());
    EXPECT_EQ(eval.last_send, run.result.last_transmitter_send->ticks());
    EXPECT_EQ(eval.end_time, run.result.end_time.ticks());
  }
}

TEST(AdversaryRepro, ArtifactRoundTripsAndReplaysBitwise) {
  const AdversaryResult result = run_adversary_search(quick_spec(2));
  const auto widest = std::max_element(
      result.cells.begin(), result.cells.end(),
      [](const auto& a, const auto& b) { return a.gap_ratio < b.gap_ratio; });
  ASSERT_NE(widest, result.cells.end());
  const AdversaryRepro repro = make_adversary_repro(*widest, quick_spec(2).max_events);

  std::stringstream file;
  write_adversary_repro(file, repro);
  const AdversaryRepro parsed = parse_adversary_repro(file);
  EXPECT_EQ(parsed.cell, repro.cell);
  EXPECT_EQ(parsed.input_seed, repro.input_seed);
  EXPECT_EQ(parsed.genome, repro.genome);
  EXPECT_EQ(parsed.expect_last_send, repro.expect_last_send);
  EXPECT_EQ(parsed.expect_output_hash, repro.expect_output_hash);

  const AdversaryReplayOutcome outcome = replay_adversary_repro(parsed);
  EXPECT_TRUE(outcome.reproduced) << outcome.mismatch;
  EXPECT_EQ(outcome.eval.last_send, repro.expect_last_send);
}

TEST(AdversaryRepro, TamperedExpectationIsCaughtByReplay) {
  const AdversaryResult result = run_adversary_search(quick_spec(1));
  ASSERT_FALSE(result.cells.empty());
  AdversaryRepro repro = make_adversary_repro(result.cells.front(), quick_spec(1).max_events);
  repro.expect_last_send += 1;
  const AdversaryReplayOutcome outcome = replay_adversary_repro(repro);
  EXPECT_FALSE(outcome.reproduced);
  EXPECT_NE(outcome.mismatch.find("last_send"), std::string::npos) << outcome.mismatch;
}

TEST(AdversaryRepro, IllegalGenomeInAnArtifactIsRejectedAtParse) {
  // The parser enforces legality at `end`, so no artifact can smuggle an
  // out-of-model schedule past the gate: a delay beyond d must throw, with
  // the structured defect (field + index) in the message.
  AdversaryRepro repro;
  repro.cell.params = core::TimingParams::make(1, 2, 6);
  repro.genome = hand_equivalent_genome(repro.cell.params);
  repro.genome.delays = {Duration{repro.cell.params.d.ticks() + 1}};
  std::stringstream file;
  write_adversary_repro(file, repro);
  try {
    (void)parse_adversary_repro(file);
    FAIL() << "illegal genome parsed";
  } catch (const ModelError& e) {
    EXPECT_NE(std::string{e.what()}.find("delays"), std::string::npos) << e.what();
  }
}

TEST(AdversaryRepro, MalformedDocumentsAreModelErrors) {
  // Each probe replaces one line of the golden artifact. Numbers are whole
  // tokens in range, no token may be left over, and the cell keys carry the
  // checks every artifact kind shares; `k -6` once parsed as k=4294967290
  // and replayed as "reproduced".
  std::ifstream in{RSTP_GOLDEN_ADVERSARY_ARTIFACT_PATH};
  ASSERT_TRUE(in.good()) << "cannot open " << RSTP_GOLDEN_ADVERSARY_ARTIFACT_PATH;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string golden = buffer.str();
  const auto with_line = [&golden](const std::string& key, const std::string& replacement) {
    std::istringstream lines{golden};
    std::string text;
    for (std::string line; std::getline(lines, line);) {
      text += line.rfind(key + ' ', 0) == 0 ? replacement : line;
      text += '\n';
    }
    return text;
  };
  const auto parse = [](const std::string& text) {
    std::istringstream doc{text};
    return parse_adversary_repro(doc);
  };
  EXPECT_NO_THROW((void)parse(golden));
  for (const auto& [key, probe] : std::vector<std::pair<std::string, std::string>>{
           {"k", "k -6"},
           {"k", "k 4 junk"},
           {"k", "k 1"},
           {"input_bits", "input_bits 0"},
           {"input_bits", "input_bits -24"},
           {"max_events", "max_events 200000 7"},
           {"input_seed", "input_seed 18446744073709551616"},
           {"delays", "delays 1 9 9"},
           {"order_keys", "order_keys 0"},
           {"t_first", "t_first 2x"},
           {"expect_events", "expect_events -1"},
           {"expect_correct", "expect_correct"},
       }) {
    EXPECT_THROW((void)parse(with_line(key, probe)), ModelError) << probe;
  }
}

std::vector<obs::RunMetricsRecord> read_gap_baseline() {
  std::ifstream in{RSTP_GOLDEN_ADVERSARY_BASELINE_PATH};
  EXPECT_TRUE(in.good()) << "cannot open " << RSTP_GOLDEN_ADVERSARY_BASELINE_PATH;
  return obs::read_run_metrics_jsonl(in);
}

TEST(GoldenGapBaseline, CheckedInFileCoversTheGoldenGrid) {
  EXPECT_EQ(read_gap_baseline().size(), golden_adversary_grid().size());
}

TEST(GoldenGapBaseline, RerunningTheSearchReproducesTheBaselineExactly) {
  // Any delta is either a real behavior change (regenerate the baseline
  // deliberately: `rstp adversary --grid golden --budget 48 --seed 1
  // --metrics-out tests/golden/adversary_baseline.jsonl`) or lost
  // determinism — both reviewer-visible events.
  const std::vector<obs::RunMetricsRecord> baseline = read_gap_baseline();
  const AdversaryResult result = run_adversary_search(golden_spec(1));
  EXPECT_TRUE(result.all_beat_hand());
  const obs::DiffReport report =
      diff_metrics(baseline, adversary_metrics_records(result, golden_spec(1).seed));
  EXPECT_EQ(report.matched, baseline.size());
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.extra.empty());
  for (const obs::CellDiff& cell : report.cells) {
    ADD_FAILURE() << "cell " << cell.key.protocol << " c1=" << cell.key.c1
                  << " k=" << cell.key.k << " drifted from the gap baseline ("
                  << cell.deltas.size() << " quantities)";
  }
  for (const obs::QuantityDelta& agg : report.aggregates) {
    EXPECT_FALSE(agg.changed()) << agg.name;
  }
}

TEST(GoldenGapBaseline, ThreadedRerunMatchesToo) {
  const obs::DiffReport report =
      diff_metrics(read_gap_baseline(),
                   adversary_metrics_records(run_adversary_search(golden_spec(3)),
                                             golden_spec(3).seed));
  EXPECT_TRUE(report.cells.empty());
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.extra.empty());
}

TEST(GoldenGapArtifact, CheckedInArtifactReplaysBitwise) {
  std::ifstream in{RSTP_GOLDEN_ADVERSARY_ARTIFACT_PATH};
  ASSERT_TRUE(in.good()) << "cannot open " << RSTP_GOLDEN_ADVERSARY_ARTIFACT_PATH;
  const AdversaryRepro repro = parse_adversary_repro(in);
  const AdversaryReplayOutcome outcome = replay_adversary_repro(repro);
  EXPECT_TRUE(outcome.reproduced) << outcome.mismatch;
  EXPECT_TRUE(outcome.eval.fit());
}

}  // namespace
}  // namespace rstp::sim
