// The machine-tracked performance baseline: one fixed reference campaign run
// at several thread counts, a determinism cross-check, and codec hot-path
// timings, all emitted as BENCH_campaign.json (schema documented in
// docs/PERF.md). bench/bench_campaign.cpp and `rstp bench` are thin wrappers
// over this module, so the baseline regenerated anywhere is produced by the
// same code path the tests exercise.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "rstp/sim/campaign.h"

namespace rstp::sim {

/// The fixed 64-job reference grid (4 protocols × 2 timings × 2 alphabets ×
/// 2 environments × 2 seeds). Small enough for CI, large enough that the
/// thread pool has real work to steal.
[[nodiscard]] CampaignSpec reference_campaign_spec();

/// The checked-in golden grid (tests/golden/campaign_baseline.jsonl): 32
/// jobs, fixed campaign seed, deliberately smaller and *distinct* from the
/// bench grid so regenerating the perf baseline never silently rewrites the
/// regression gate's reference. `rstp campaign` runs exactly this spec;
/// GoldenBaseline.* and Cli.CampaignRunsTheGoldenGrid (`ctest -L gate`) diff
/// its output against the checked-in file.
[[nodiscard]] CampaignSpec golden_campaign_spec();

struct CampaignBenchOptions {
  /// Thread counts to sweep; 0 entries mean hardware concurrency.
  std::vector<unsigned> thread_counts = {1, 2, 4, 0};
  /// Iterations for the codec rank/unrank timing loops.
  std::size_t codec_iterations = 512;
  /// (k, n) points for the codec timings; k >= 8 is the regression gate.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> codec_points = {{8, 32}, {32, 32}};
  /// Live progress lines for the (untimed) warmup run only, so the timed
  /// stages never carry reporting overhead. Null keeps the bench silent.
  CampaignProgress progress;
};

/// One campaign sweep stage at a fixed thread count.
struct CampaignStage {
  unsigned threads = 1;         ///< resolved count (0 in options → actual)
  double wall_ms = 0;
  double jobs_per_sec = 0;
  double speedup_vs_serial = 0;  ///< serial wall / this wall
  bool identical_to_serial = false;
};

/// Codec timings at one (k, n): cumulative-table path vs the seed recurrence.
struct CodecTiming {
  std::uint32_t k = 0;
  std::uint32_t n = 0;
  double rank_ns = 0;
  double unrank_ns = 0;
  double rank_reference_ns = 0;
  double unrank_reference_ns = 0;

  [[nodiscard]] bool table_beats_reference() const {
    return rank_ns < rank_reference_ns && unrank_ns < unrank_reference_ns;
  }
};

struct CampaignBenchReport {
  unsigned hardware_threads = 1;
  std::size_t jobs = 0;
  std::size_t incorrect_jobs = 0;  ///< from the serial run (must be 0)
  std::vector<CampaignStage> stages;
  bool deterministic = false;  ///< every stage bitwise matched the serial run
  std::vector<CodecTiming> codec;
  /// The serial reference run's full result (per-job RunMetrics included):
  /// lets callers export the grid's metrics without rerunning the campaign.
  CampaignResult serial_result;

  /// True iff every job was correct and every stage reproduced the serial
  /// result — the conditions under which the baseline is trustworthy.
  [[nodiscard]] bool ok() const { return incorrect_jobs == 0 && deterministic; }
};

/// Runs the reference campaign through every thread count, checks each
/// result bitwise against the serial one, and times the codec paths.
[[nodiscard]] CampaignBenchReport run_campaign_bench(const CampaignBenchOptions& options = {});

/// Serializes the report as the BENCH_campaign.json document.
void write_campaign_bench_json(std::ostream& os, const CampaignBenchReport& report);

/// Human-readable summary table (the bench binary's stdout).
void print_campaign_bench(std::ostream& os, const CampaignBenchReport& report);

}  // namespace rstp::sim
