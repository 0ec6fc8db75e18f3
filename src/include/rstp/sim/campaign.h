// Parallel simulation campaigns: declarative grids of protocol runs fanned
// across a thread pool.
//
// Every experiment sweep in the repo (EXPERIMENTS.md E1–E3, the bench suite,
// the effort-distribution sampler) is a grid of independent simulations —
// protocol × (c1, c2, d) × k × environment × seed. A Campaign materializes
// that grid as a job list and executes it with work-stealing workers:
//
//   * Jobs are numbered in grid order; an atomic cursor hands the next index
//     to whichever worker is free (no static partitioning, so a few slow
//     cells — large k, adversarial delivery — cannot strand a thread).
//   * Each job derives its RNG seeds by SplitMix64-mixing the campaign seed
//     with the job index, so job i's randomness is a fixed function of the
//     spec alone: independent of thread count, scheduling order, and of
//     every other job.
//   * Results land in a pre-sized slot per job, and aggregates are reduced
//     serially in index order after the join. A CampaignResult is therefore
//     bitwise identical to the serial (threads = 1) run regardless of
//     thread count — determinism is asserted by campaign_test.cpp, not just
//     promised.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rstp/core/drift.h"
#include "rstp/core/effort.h"
#include "rstp/core/params.h"
#include "rstp/est/estimator.h"
#include "rstp/obs/run_metrics.h"
#include "rstp/obs/sinks.h"
#include "rstp/protocols/factory.h"

namespace rstp::sim {

/// The declarative grid: the cross product of every axis, times
/// `seeds_per_cell` replicas with distinct derived seeds.
struct CampaignSpec {
  std::vector<protocols::ProtocolKind> protocols;
  std::vector<core::TimingParams> timings;
  std::vector<std::uint32_t> alphabets;  ///< k values
  /// Scheduler/delivery-policy choices; each entry's `seed` field is ignored
  /// and replaced by the per-job derived seed.
  std::vector<core::Environment> environments;
  std::uint32_t seeds_per_cell = 1;
  std::size_t input_bits = 64;      ///< |X| of every job (random, per-job seed)
  std::uint64_t campaign_seed = 1;  ///< root of every derived stream
  std::uint64_t max_events = 50'000'000;

  /// Estimator sweep (est/runner.h): with `estimator_enabled`, every job runs
  /// as an oracle/estimator pair in the same environment and records
  /// est_penalty = effort_est / effort_oracle plus the final estimator
  /// gauges. Requires every protocol in the grid to be Beta or Gamma.
  bool estimator_enabled = false;
  est::EstimatorConfig estimator{};
  /// Drift axis: each entry multiplies the grid; an empty DriftSpec means
  /// "stationary" (the environment's own schedulers/policy). An empty vector
  /// contributes no axis, keeping pre-existing grids' job decomposition —
  /// and therefore their derived seed streams — bitwise identical.
  std::vector<core::DriftSpec> drifts;

  /// Throws rstp::ContractViolation if any axis is empty or a parameter set
  /// is invalid.
  void validate() const;

  /// Total number of jobs in the grid.
  [[nodiscard]] std::size_t job_count() const;
};

/// The (environment seed, input seed) pair derived for one unit of a sweep —
/// campaign job `index` under `campaign_seed`, or mega session `index` under
/// the MultiSession base seed. SplitMix64 over root + index, environment seed
/// drawn first: the shared derivation is what makes a MultiSession session
/// reproducible as a standalone core::run_protocol call with the same seeds.
struct DerivedSeeds {
  std::uint64_t environment = 0;
  std::uint64_t input = 0;
};
[[nodiscard]] DerivedSeeds derive_unit_seeds(std::uint64_t root, std::uint64_t index);

/// One materialized cell of the grid.
struct CampaignJob {
  std::size_t index = 0;
  protocols::ProtocolKind protocol = protocols::ProtocolKind::Alpha;
  core::TimingParams params{};
  std::uint32_t k = 2;
  core::Environment environment{};  ///< seed already derived for this job
  std::uint64_t input_seed = 0;
  core::DriftSpec drift{};  ///< empty = stationary cell
  bool estimator_enabled = false;
  est::EstimatorConfig estimator{};
};

/// Per-job outcome: the effort/step/send counters a sweep aggregates, plus
/// enough identity to interpret a row without the spec at hand.
struct CampaignJobResult {
  std::size_t index = 0;
  protocols::ProtocolKind protocol = protocols::ProtocolKind::Alpha;
  core::TimingParams params{};
  std::uint32_t k = 2;
  std::uint64_t env_seed = 0;
  double effort = 0;  ///< t(last-send)/n ticks per bit; 0 if nothing was sent
  std::uint64_t event_count = 0;
  std::uint64_t transmitter_steps = 0;
  std::uint64_t receiver_steps = 0;
  std::uint64_t transmitter_sends = 0;
  std::uint64_t receiver_sends = 0;
  bool output_correct = false;
  bool quiescent = false;
  bool failed = false;  ///< the run threw (error holds the message)
  std::string error;
  /// The run's full metric snapshot (populated with record_trace=false).
  /// Purely simulation-derived, so the defaulted == below keeps the
  /// campaign's bitwise-determinism guarantee covering the metrics too.
  obs::RunMetrics metrics;
  /// Estimator cells only (est/runner.h): effort_est / effort_oracle for the
  /// pair, and the estimated run's final gauges. Zero elsewhere.
  double est_penalty = 0;
  obs::EstimatorGauges est{};

  friend bool operator==(const CampaignJobResult&, const CampaignJobResult&) = default;
};

/// min/max/mean of one metric over the campaign, reduced in job order.
struct CampaignAggregate {
  double min = 0;
  double max = 0;
  double mean = 0;

  friend bool operator==(const CampaignAggregate&, const CampaignAggregate&) = default;
};

struct CampaignResult {
  std::vector<CampaignJobResult> jobs;  ///< in grid order, any thread count
  CampaignAggregate effort{};           ///< over jobs that sent at least once
  CampaignAggregate events{};
  std::uint64_t total_events = 0;
  std::uint64_t total_transmitter_sends = 0;
  /// Whole-grid fold of every job's RunCounters, reduced in job order.
  /// (Histograms are not folded: their bucket layouts vary with each cell's
  /// timing parameters; per-job histograms live in jobs[i].metrics.)
  obs::RunCounters total_counters;
  /// Over estimator cells with a positive penalty; zero for oracle-only grids.
  CampaignAggregate est_penalty{};
  std::size_t incorrect = 0;  ///< jobs with Y != X, non-quiescent, or failed

  [[nodiscard]] bool all_correct() const { return incorrect == 0; }

  friend bool operator==(const CampaignResult&, const CampaignResult&) = default;
};

class Campaign {
 public:
  /// Validates and freezes the spec.
  explicit Campaign(CampaignSpec spec);

  [[nodiscard]] const CampaignSpec& spec() const { return spec_; }
  [[nodiscard]] std::size_t job_count() const { return spec_.job_count(); }

  /// The grid cell at `index` (with its derived seeds). Index order is
  /// protocol-major: protocol, timing, k, environment, seed replica.
  [[nodiscard]] CampaignJob job(std::size_t index) const;

  /// Runs every job on `threads` workers (0 = hardware concurrency) and
  /// merges. The result is bitwise identical for every thread count.
  [[nodiscard]] CampaignResult run(unsigned threads = 1) const;

 private:
  CampaignSpec spec_;
};

/// Runs a single materialized job (the campaign worker's body; exposed for
/// tests and ad-hoc reruns of one grid cell).
[[nodiscard]] CampaignJobResult run_campaign_job(const CampaignJob& job, std::size_t input_bits,
                                                 std::uint64_t max_events);

/// The checked-in golden grid (tests/golden/campaign_baseline.jsonl): 32
/// jobs, fixed campaign seed. `rstp campaign` runs exactly this spec;
/// GoldenBaseline.* and Cli.CampaignRunsTheGoldenGrid (`ctest -L gate`) diff
/// its output against the checked-in file.
[[nodiscard]] CampaignSpec golden_campaign_spec();

/// The identity of a run's metrics record; each record builder starts from
/// one (`obs::RunMetricsRecord record{run_identity(...)}`).
[[nodiscard]] obs::RunIdentity run_identity(protocols::ProtocolKind protocol,
                                            const core::TimingParams& params, std::uint32_t k,
                                            std::uint64_t input_bits, std::uint64_t seed);

/// Flattens a campaign result into JSONL-exportable records: one
/// RunMetricsRecord per job, in grid order, carrying the job's identity and
/// its RunMetrics snapshot. `input_bits` is taken from the spec that
/// produced the result (jobs do not carry it). end_time stays 0 — a
/// campaign job reports effort, not an event-time trace.
[[nodiscard]] std::vector<obs::RunMetricsRecord> campaign_metrics_records(
    const CampaignResult& result, std::size_t input_bits);

}  // namespace rstp::sim
