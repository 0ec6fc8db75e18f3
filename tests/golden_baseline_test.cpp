// The metrics regression gate, as a test: rerun the checked-in golden
// campaign grid (tests/golden/campaign_baseline.jsonl, produced by
// `rstp campaign --metrics-out`) and diff the fresh results against the
// committed file. Any delta means either a real behavior change (regenerate
// the baseline deliberately, with the diff in the commit message) or lost
// determinism — both things a reviewer must see. The baseline path is
// injected by CMake as RSTP_GOLDEN_BASELINE_PATH.
#include <gtest/gtest.h>

#include <fstream>
#include <vector>

#include "rstp/est/runner.h"
#include "rstp/obs/diff.h"
#include "rstp/obs/sinks.h"
#include "rstp/sim/campaign.h"

namespace rstp {
namespace {

std::vector<obs::RunMetricsRecord> read_baseline() {
  std::ifstream in{RSTP_GOLDEN_BASELINE_PATH};
  EXPECT_TRUE(in.good()) << "cannot open " << RSTP_GOLDEN_BASELINE_PATH;
  return obs::read_run_metrics_jsonl(in);
}

std::vector<obs::RunMetricsRecord> rerun_golden_grid(unsigned threads) {
  const sim::Campaign campaign{sim::golden_campaign_spec()};
  const sim::CampaignResult result = campaign.run(threads);
  EXPECT_EQ(result.incorrect, 0u);
  return sim::campaign_metrics_records(result, sim::golden_campaign_spec().input_bits);
}

TEST(GoldenBaseline, CheckedInFileMatchesTheSpec) {
  const std::vector<obs::RunMetricsRecord> baseline = read_baseline();
  EXPECT_EQ(baseline.size(), sim::Campaign{sim::golden_campaign_spec()}.job_count());
}

TEST(GoldenBaseline, RerunningTheGridReproducesTheBaselineExactly) {
  const std::vector<obs::RunMetricsRecord> baseline = read_baseline();
  const obs::DiffReport report = diff_metrics(baseline, rerun_golden_grid(1));
  EXPECT_EQ(report.matched, baseline.size());
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.extra.empty());
  for (const obs::CellDiff& cell : report.cells) {
    ADD_FAILURE() << "cell " << cell.key.protocol << " seed " << cell.key.seed
                  << " drifted from the golden baseline (" << cell.deltas.size()
                  << " quantities); regenerate tests/golden/campaign_baseline.jsonl "
                     "only for a deliberate behavior change";
  }
  for (const obs::QuantityDelta& agg : report.aggregates) {
    EXPECT_FALSE(agg.changed()) << agg.name;
  }
}

TEST(GoldenBaseline, ThreadedRerunMatchesToo) {
  // The gate must hold regardless of worker count, or CI results would
  // depend on the runner's core count.
  const obs::DiffReport report = diff_metrics(read_baseline(), rerun_golden_grid(3));
  EXPECT_TRUE(report.cells.empty());
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.extra.empty());
}

// --- The estimator baseline (tests/golden/estimator_baseline.jsonl) -------
// Same gate, second grid: the 16-cell estimator sweep produced by
// `rstp campaign --estimator --metrics-out`, carrying per-cell est_penalty
// and the final estimator gauges. Cli.EstimatorCampaignHoldsThePenaltyGate
// additionally holds the aggregate through the CLI with
// `rstp report <baseline> <fresh> --fail-on '...,est_penalty_max>5%'`.

std::vector<obs::RunMetricsRecord> read_estimator_baseline() {
  std::ifstream in{RSTP_GOLDEN_ESTIMATOR_BASELINE_PATH};
  EXPECT_TRUE(in.good()) << "cannot open " << RSTP_GOLDEN_ESTIMATOR_BASELINE_PATH;
  return obs::read_run_metrics_jsonl(in);
}

std::vector<obs::RunMetricsRecord> rerun_estimator_grid(unsigned threads) {
  const sim::Campaign campaign{est::golden_estimator_spec()};
  const sim::CampaignResult result = campaign.run(threads);
  EXPECT_EQ(result.incorrect, 0u);
  return sim::campaign_metrics_records(result, est::golden_estimator_spec().input_bits);
}

TEST(GoldenEstimatorBaseline, CheckedInFileMatchesTheSpec) {
  const std::vector<obs::RunMetricsRecord> baseline = read_estimator_baseline();
  EXPECT_EQ(baseline.size(), sim::Campaign{est::golden_estimator_spec()}.job_count());
  for (const obs::RunMetricsRecord& record : baseline) {
    EXPECT_GT(record.est_penalty, 0.0) << record.protocol << " seed " << record.seed;
    EXPECT_GE(record.est.c1_hat, 1);
  }
}

TEST(GoldenEstimatorBaseline, RerunningTheGridReproducesTheBaselineExactly) {
  const std::vector<obs::RunMetricsRecord> baseline = read_estimator_baseline();
  const obs::DiffReport report = diff_metrics(baseline, rerun_estimator_grid(1));
  EXPECT_EQ(report.matched, baseline.size());
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.extra.empty());
  for (const obs::CellDiff& cell : report.cells) {
    ADD_FAILURE() << "cell " << cell.key.protocol << " seed " << cell.key.seed
                  << " drifted from the estimator baseline (" << cell.deltas.size()
                  << " quantities); regenerate tests/golden/estimator_baseline.jsonl "
                     "only for a deliberate behavior change";
  }
  for (const obs::QuantityDelta& agg : report.aggregates) {
    EXPECT_FALSE(agg.changed()) << agg.name;
  }
}

TEST(GoldenEstimatorBaseline, ThreadedRerunMatchesToo) {
  const obs::DiffReport report =
      diff_metrics(read_estimator_baseline(), rerun_estimator_grid(3));
  EXPECT_TRUE(report.cells.empty());
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.extra.empty());
}

}  // namespace
}  // namespace rstp
