// Adversary synthesis: coverage-guided search over legal channel behaviours
// for effort maximizers, gated against the paper's lower bounds.
//
// The lower-bound constructions (Lemma 5.1/5.4, Theorems 5.3/5.6) are
// realized elsewhere in the repo by *hand-coded* adversaries
// (Environment::worst_case(): both processes stepping every c2, every packet
// held the full d). This module stops trusting that we thought of the worst
// case: it runs the fuzzer's generational search loop (search_support.h) to
// *search* the space of legal ScheduleGenomes — per-packet delays, tie
// orders, per-process step gaps — with fitness = t(last-send), the effort
// numerator, instead of crash novelty.
//
// Guarantees the design leans on:
//   * legality by construction — every candidate passes channel::check_genome
//     before it runs, so the search can only explore good(A); the paper's
//     protocols are correct there, and an incorrect/non-quiescent run is
//     discarded as unfit rather than celebrated.
//   * best ≥ hand-coded — generation 0 seeds the population with
//     hand_equivalent_genome() (the exact worst_case() environment as a
//     genome), and the elite is monotone, so the search's answer can never
//     fall below the hand-coded adversary evaluated on the same input.
//   * bitwise determinism across --jobs — the search runs on the same
//     generational loop as run_fuzz (search_support.h).
//     AdversaryResult::result_hash is the identity tests pin across jobs 1/3/8.
//   * replayability — the winning genome serializes as a minimized
//     `rstp-adversary-v1` artifact; `rstp replay` re-executes it and
//     compares every recorded field, like fuzz repros.
//
// Per cell the empirical gap to the theory is reported as
//   gap_ratio = best_effort / lower_bound,
// with lower_bound = Theorem 5.3's bound for r-passive protocols and Theorem
// 5.6's for active ones. Ratios land in the RunMetricsRecord stream
// (obs/sinks.h) so the golden diff gate (`rstp report --fail-on
// 'gap_ratio_max>…'`) turns §5 into a continuously-tested empirical claim.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "rstp/channel/synthesized.h"
#include "rstp/core/bounds.h"
#include "rstp/obs/sinks.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/search_support.h"

namespace rstp::sim {

/// One grid cell: a protocol under fixed timing, alphabet, and input size.
struct AdversaryCell {
  protocols::ProtocolKind protocol = protocols::ProtocolKind::Beta;
  core::TimingParams params = core::TimingParams::make(1, 2, 6);
  std::uint32_t k = 4;
  std::uint32_t input_bits = 24;

  friend bool operator==(const AdversaryCell&, const AdversaryCell&) = default;
};

/// Everything one genome evaluation produced — the adversary-search analogue
/// of FuzzCaseResult. A pure function of (cell, input_seed, genome,
/// max_events).
struct GenomeEval {
  bool valid = false;      ///< protocol accepted the config and the run completed
  bool correct = false;    ///< Y == X
  bool quiescent = false;  ///< ran to global quiescence (not the event cap)
  std::int64_t last_send = 0;  ///< t(last-send) ticks; the fitness. 0 if no send
  double effort = 0;           ///< last_send / input_bits
  std::int64_t end_time = 0;
  std::uint64_t output_hash = 0;
  std::uint64_t event_count = 0;
  std::uint64_t coverage_hash = 0;
  std::vector<std::uint64_t> fingerprints;  ///< distinct, sorted
  /// Fit = admissible as an effort witness: only correct, quiescent runs
  /// count (an adversary that *breaks* the protocol belongs to the fuzzer).
  [[nodiscard]] bool fit() const { return valid && correct && quiescent; }
};

/// Runs `cell`'s protocol against the schedules `genome` describes (genome
/// schedulers for both processes + SynthesizedPolicy channel) and scores it.
/// Throws ContractViolation if the genome is illegal for cell.params.
[[nodiscard]] GenomeEval evaluate_genome(const AdversaryCell& cell, std::uint64_t input_seed,
                                         const channel::ScheduleGenome& genome,
                                         std::uint64_t max_events = 200'000);

/// The hand-coded worst case (Environment::worst_case(): SlowFixed/SlowFixed/
/// MaxDelay) expressed as a genome — the search's generation-0 floor.
[[nodiscard]] channel::ScheduleGenome hand_equivalent_genome(const core::TimingParams& params);

struct AdversarySpec {
  std::vector<AdversaryCell> grid;
  std::uint64_t seed = 1;
  std::uint64_t budget = 64;  ///< genome evaluations per cell (minimization excluded)
  unsigned jobs = 1;          ///< 0 = hardware concurrency
  std::uint64_t max_events = 200'000;
};

struct AdversaryCellResult {
  AdversaryCell cell;
  std::uint64_t input_seed = 0;  ///< derived from (spec.seed, cell index)
  double lower_bound = 0;        ///< Theorem 5.3 (r-passive) or 5.6 (active)
  std::int64_t hand_last_send = 0;  ///< the hand-coded adversary's fitness
  double hand_effort = 0;
  /// The synthesized winner (post-minimization re-evaluation).
  channel::ScheduleGenome best_genome;
  GenomeEval best;
  double gap_ratio = 0;  ///< best.effort / lower_bound
  std::uint64_t executed = 0;  ///< evaluations spent (excluding minimization)
  std::size_t coverage = 0;    ///< distinct fingerprints reached in this cell

  /// The acceptance criterion, per cell: a fit adversary at least as costly
  /// as the hand-coded one.
  [[nodiscard]] bool beats_hand() const {
    return best.fit() && best.last_send >= hand_last_send;
  }
};

struct AdversaryResult {
  std::vector<AdversaryCellResult> cells;
  /// FNV fold of every cell's exact integers (fitness, hashes, genome
  /// tables) — the cross-jobs determinism identity.
  std::uint64_t result_hash = 0;

  [[nodiscard]] bool all_beat_hand() const {
    for (const AdversaryCellResult& c : cells) {
      if (!c.beats_hand()) return false;
    }
    return !cells.empty();
  }
};

/// Runs the search: cells sequentially, each cell's generations evaluated in
/// parallel (spec.jobs) with a serial fold. Deterministic for a fixed spec
/// across any jobs value.
[[nodiscard]] AdversaryResult run_adversary_search(const AdversarySpec& spec);

/// The checked-in gap-baseline grid: the four paper protocols × timings
/// {(1,2,6), (2,3,9)} × k ∈ {2, 6}, 24 input bits — 16 cells.
[[nodiscard]] std::vector<AdversaryCell> golden_adversary_grid();

/// A 4-cell smoke grid (one cell per paper protocol) for the quick checks in
/// adversary_test and Cli.AdversaryVerbWritesAReplayableArtifact.
[[nodiscard]] std::vector<AdversaryCell> quick_adversary_grid();

/// One RunMetricsRecord per cell (effort = best effort, gap_ratio filled,
/// seed = spec seed) — the feed for `rstp report --fail-on 'gap_ratio_max>…'`.
[[nodiscard]] std::vector<obs::RunMetricsRecord> adversary_metrics_records(
    const AdversaryResult& result, std::uint64_t seed);

/// `rstp-adversary-v1` artifact: the winning genome for one cell plus the
/// recorded outcome, replayable bit-for-bit. Same artifact grammar as fuzz
/// repros (sim/search_support.h: `key values…`, `#` comments, closed by `end`).
struct AdversaryRepro {
  AdversaryCell cell;
  std::uint64_t input_seed = 0;
  std::uint64_t max_events = 200'000;
  channel::ScheduleGenome genome;
  std::int64_t expect_last_send = 0;
  std::uint64_t expect_output_hash = 0;
  std::uint64_t expect_events = 0;
  bool expect_correct = false;
  bool expect_quiescent = false;

  friend bool operator==(const AdversaryRepro&, const AdversaryRepro&) = default;
};

[[nodiscard]] AdversaryRepro make_adversary_repro(const AdversaryCellResult& cell_result,
                                                  std::uint64_t max_events);
void write_adversary_repro(std::ostream& os, const AdversaryRepro& repro);
/// Throws rstp::ModelError on malformed input (including illegal genomes).
/// The document overload takes an already-read artifact.
[[nodiscard]] AdversaryRepro parse_adversary_repro(std::istream& is);
[[nodiscard]] AdversaryRepro parse_adversary_repro(ArtifactDocument doc);

/// Re-executes the artifact's genome and compares every recorded field.
struct AdversaryReplayOutcome {
  GenomeEval eval;
  bool reproduced = false;
  std::string mismatch;  ///< first differing field, "got vs recorded"
};
[[nodiscard]] AdversaryReplayOutcome replay_adversary_repro(const AdversaryRepro& repro);

/// The artifact header line, exposed so `rstp replay` can dispatch on it.
[[nodiscard]] std::string_view adversary_repro_header();

}  // namespace rstp::sim
