// Coverage-guided schedule fuzzer with deterministic repro artifacts.
//
// The property tests *sample* good(A); the fuzzer *hunts* in it (and, with
// fault injection on, outside it). A FuzzCase is a complete genome for one
// run — protocol, timing params, every seed, the fault plan — so a case is a
// pure value: running it twice, on any machine, yields bit-identical traces,
// verdicts, and coverage. That purity is what makes the three artifacts work:
//
//   * coverage — each applied event is fingerprinted (actor, action shape,
//     protocol counters, output length; never wall-clock or raw time, which
//     would make every case "new"). A case that reaches a fingerprint no
//     earlier case reached joins the corpus and becomes mutation fodder.
//   * determinism across --jobs — the search runs on sim/search_support.h's
//     generational loop; the thread count changes wall-clock only.
//   * repro files — a failure serializes its (minimized) FuzzCase plus the
//     expected verdict; `rstp replay FILE` re-runs it and compares every
//     recorded field. See docs/TESTING.md for the format.
//
// Verdicts are fault-aware (core::verify_with_faults): a run is a
// *failure* only on an unexcused violation, or on a protocol exception with
// a clean fault log (a crash after an injected fault is fail-stop behavior,
// not a bug — several protocols deliberately RSTP_CHECK model assumptions).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "rstp/core/verify.h"
#include "rstp/fault/fault.h"
#include "rstp/obs/run_metrics.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/observer.h"
#include "rstp/sim/search_support.h"

namespace rstp::sim {

/// A complete, serializable genome for one fuzz run. Every field feeds the
/// execution; none is advisory — equality of FuzzCases implies bit-equality
/// of everything run_fuzz_case derives from them.
struct FuzzCase {
  protocols::ProtocolKind protocol = protocols::ProtocolKind::Beta;
  core::TimingParams params = core::TimingParams::make(1, 2, 6);
  std::uint32_t k = 4;
  std::uint32_t input_bits = 32;
  std::uint64_t input_seed = 1;
  std::uint64_t sched_seed_t = 1;  ///< transmitter SeededRandomScheduler
  std::uint64_t sched_seed_r = 2;  ///< receiver SeededRandomScheduler
  std::uint64_t delay_seed = 3;    ///< UniformRandomPolicy over [0, d]
  /// Mutant knobs (0 = derive from params): forwarded to ProtocolConfig's
  /// block/wait overrides. wait_override below ⌈d/c1⌉ breaks β's block
  /// separation — the checked-in golden failure uses exactly that.
  std::uint32_t block_override = 0;
  std::uint32_t wait_override = 0;
  std::uint64_t max_events = 200'000;
  bool faults_enabled = false;
  std::uint64_t fault_seed = 0;
  fault::FaultRates rates{};
  std::vector<fault::PinnedFault> pins;

  friend bool operator==(const FuzzCase&, const FuzzCase&) = default;
};

/// Writes/parses the `rstp-fuzz-case-v1` artifact (sim/search_support.h's
/// grammar). parse throws rstp::ModelError on malformed input.
void write_fuzz_case(std::ostream& os, const FuzzCase& c);
[[nodiscard]] FuzzCase parse_fuzz_case(std::istream& is);

/// Every `*.case` file in `dir`, parsed, in sorted path order: the seed
/// corpus `rstp fuzz --corpus DIR` loads. Throws rstp::ModelError when the
/// directory or one of its files cannot be read, or a file is malformed.
[[nodiscard]] std::vector<FuzzCase> read_fuzz_corpus(const std::string& dir);

/// Everything one case execution produced. All fields are deterministic
/// functions of the FuzzCase.
struct FuzzCaseResult {
  bool invalid = false;   ///< genome violates a protocol's config contract; skipped
  bool crashed = false;   ///< the run threw (protocol RSTP_CHECK, event-cap logic)
  bool failed = false;    ///< unexcused violation, or a crash with no prior fault
  std::string failure;    ///< summary of why (empty when !failed && !crashed)
  std::vector<core::Violation> unexcused;
  std::size_t excused = 0;
  std::size_t fault_events = 0;
  bool quiescent = false;
  std::uint64_t output_hash = 0;    ///< FNV-1a over Y
  std::uint64_t coverage_hash = 0;  ///< order-independent fold of fingerprints
  std::vector<std::uint64_t> fingerprints;  ///< distinct, sorted
  std::uint64_t event_count = 0;
  /// Effort bookkeeping (0 for invalid/crashed runs, or when the transmitter
  /// never sent): t(last-send) in ticks, t(last-send)/|X| in ticks per bit,
  /// and the model time of the last event. These feed the per-case
  /// RunMetricsRecord stream so effort regressions trip the same
  /// `rstp report --fail-on` gate as campaign perf regressions.
  std::int64_t last_send = 0;
  double effort = 0;
  std::int64_t end_time = 0;
  obs::RunMetrics metrics;  ///< empty for invalid/crashed runs
};

/// Executes one genome: seeded schedulers, uniform-random delays in [0, d],
/// optional SeededFaultInjector, full trace, fault-aware verification.
/// `observer` (sim/observer.h; non-owning), e.g. the causal span tracer,
/// watches the run beside the coverage observer; it cannot change the result.
[[nodiscard]] FuzzCaseResult run_fuzz_case(const FuzzCase& c, SimObserver* observer = nullptr);

struct FuzzSpec {
  protocols::ProtocolKind protocol = protocols::ProtocolKind::Beta;
  std::uint32_t k = 4;
  std::uint64_t seed = 1;
  /// Total case executions (initial seeds + mutations). The run is
  /// deterministic given (spec, corpus_seeds) for any `jobs`.
  std::uint64_t budget = 256;
  unsigned jobs = 1;  ///< 0 = hardware concurrency
  std::uint32_t max_input_bits = 48;
  std::uint64_t max_events = 200'000;
  bool faults_enabled = false;
  /// Applied to every generated case (see FuzzCase): the mutant knobs.
  std::uint32_t block_override = 0;
  std::uint32_t wait_override = 0;
  /// Stop folding new generations once a failure is in hand (the budget is
  /// an upper bound either way).
  bool stop_on_failure = true;
  /// Wall-clock cutoff in milliseconds (0 = none). Checked at generation
  /// boundaries only — using it trades the cross-run determinism guarantee
  /// for bounded latency; iteration budgets keep it.
  std::uint64_t time_budget_ms = 0;
  /// Extra starting cases (e.g. a checked-in corpus). Run before mutations.
  std::vector<FuzzCase> corpus_seeds;
};

struct FuzzFailure {
  FuzzCase original;       ///< as discovered
  FuzzCase minimized;      ///< after deterministic shrinking (still failing)
  FuzzCaseResult result;   ///< verdict of `minimized`
};

struct FuzzResult {
  std::uint64_t executed = 0;        ///< cases run (excluding minimization reruns)
  std::size_t coverage = 0;          ///< distinct fingerprints reached
  std::uint64_t coverage_hash = 0;   ///< order-independent fold of all of them
  std::vector<FuzzCase> corpus;            ///< cases that first reached new coverage
  std::vector<FuzzCaseResult> corpus_results;  ///< parallel to `corpus`
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the campaign. Deterministic for fixed (spec, corpus_seeds) across
/// runs and `jobs` values, unless time_budget_ms cuts it short.
[[nodiscard]] FuzzResult run_fuzz(const FuzzSpec& spec);

/// A parsed `rstp-fuzz-repro-v1` file: the genome plus the recorded verdict.
struct FuzzRepro {
  FuzzCase fuzz_case;
  bool failed = false;
  bool crashed = false;
  bool quiescent = false;
  std::size_t unexcused = 0;
  std::size_t fault_events = 0;
  std::vector<std::string> kinds;  ///< unexcused ViolationKind names, in order
  std::uint64_t output_hash = 0;
  std::uint64_t coverage_hash = 0;
  std::uint64_t event_count = 0;

  friend bool operator==(const FuzzRepro&, const FuzzRepro&) = default;
};

/// Serializes case + verdict as a self-contained repro document.
void write_fuzz_repro(std::ostream& os, const FuzzCase& c, const FuzzCaseResult& result);
/// Writes a repro back exactly as parsed: parse(write(r)) == r.
void write_fuzz_repro(std::ostream& os, const FuzzRepro& repro);
/// Throws rstp::ModelError on malformed input; the document overload takes
/// an already-read artifact.
[[nodiscard]] FuzzRepro parse_fuzz_repro(std::istream& is);
[[nodiscard]] FuzzRepro parse_fuzz_repro(ArtifactDocument doc);

/// Re-executes a repro and compares every recorded field bitwise.
struct ReplayOutcome {
  FuzzCaseResult result;
  bool reproduced = false;
  std::string mismatch;  ///< first differing field, "got vs expected"
};
[[nodiscard]] ReplayOutcome replay_fuzz_repro(const FuzzRepro& repro,
                                              SimObserver* observer = nullptr);

/// The verdict fields of `result` as a FuzzRepro (shared by write/replay).
[[nodiscard]] FuzzRepro make_fuzz_repro(const FuzzCase& c, const FuzzCaseResult& result);

}  // namespace rstp::sim
