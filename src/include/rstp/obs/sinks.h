// Metric sinks: the JSONL writer/reader (`--metrics-out`, `rstp report`) and
// the human-readable table formatters.
//
// One JSONL line per run ("rstp-run-metrics-v1"): identity (protocol, timing,
// k, input size, seed), the verdicts a reader filters on (correct, quiescent,
// effort), the full RunCounters, and each histogram serialized exactly
// (bucket layout + counts + extremes), so read-after-write reproduces the
// in-memory RunMetrics bit for bit. Percentiles are re-derived on read, never
// trusted from the file.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "rstp/obs/metrics.h"
#include "rstp/obs/run_metrics.h"

namespace rstp::obs {

/// Which run a record describes: the fields two series are joined on.
struct RunIdentity {
  std::string protocol;
  std::int64_t c1 = 0;
  std::int64_t c2 = 0;
  std::int64_t d = 0;
  std::uint32_t k = 2;
  std::uint64_t input_bits = 0;
  std::uint64_t seed = 0;      ///< environment seed (0 for deterministic runs)

  friend auto operator<=>(const RunIdentity&, const RunIdentity&) = default;
};

/// One exported run: enough identity to interpret the row without the
/// invocation at hand, plus the metric snapshot itself.
struct RunMetricsRecord : RunIdentity {
  double effort = 0;           ///< t(last-send)/n ticks per bit; 0 if nothing sent
  /// Empirical effort / the matching theoretical lower bound (Theorem 5.3
  /// for r-passive protocols, 5.6 for active ones). 0 when not applicable
  /// (plain runs, fuzz cases) — absent in old JSONL files, which read back
  /// as 0, keeping checked-in baselines parseable.
  double gap_ratio = 0;
  /// Estimator cells only (est/runner.h): effort_est / effort_oracle for the
  /// paired run, plus the estimated run's final gauges. 0 elsewhere — and in
  /// pre-estimator JSONL files, which read back as zeros like gap_ratio.
  double est_penalty = 0;
  EstimatorGauges est{};
  /// Multiplexed rows only (sim/multi_session.h): the number of sessions
  /// folded into this record and the sustained simulated-events-per-second
  /// throughput of the run that produced it. 0 on single-session rows — and
  /// in pre-megasession JSONL files, which read back as 0 like gap_ratio.
  /// events_per_sec is wall-clock (machine-dependent): it never becomes a
  /// per-record diff cell, only the report aggregates consume it.
  std::uint64_t sessions = 0;
  double events_per_sec = 0;
  std::int64_t end_time = 0;   ///< simulated time of the last event, ticks
  bool correct = false;
  bool quiescent = false;
  RunMetrics metrics;

  friend bool operator==(const RunMetricsRecord&, const RunMetricsRecord&) = default;
};

/// Appends one record as a single JSON object line ("rstp-run-metrics-v1").
void write_run_metrics_jsonl(std::ostream& os, const RunMetricsRecord& record);

/// Reads every line of a JSONL stream written by write_run_metrics_jsonl.
/// Blank lines are skipped; malformed lines, a wrong schema tag, a key the
/// writer never emits (at the top level or in counters, est, hist or a
/// histogram) or a key whose value has the wrong JSON type throw
/// JsonParseError naming the offending line number. Keys a record lacks
/// read as their defaults, so older baselines still parse; a histogram may
/// also be null, as the writer writes an unconfigured one.
[[nodiscard]] std::vector<RunMetricsRecord> read_run_metrics_jsonl(std::istream& is);

/// Renders records as a fixed-width table (one row per run) followed by a
/// totals line folding the integral counters over all rows.
void print_metrics_table(std::ostream& os, const std::vector<RunMetricsRecord>& records);

}  // namespace rstp::obs
