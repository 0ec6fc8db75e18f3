// Metrics diffing: the regression-gate half of `rstp report`.
//
// Two "rstp-run-metrics-v1" series are joined by cell — the run identity
// (protocol, c1, c2, d, k, input_bits, seed) plus an occurrence index for
// duplicate identities — and every per-run quantity (verdicts, counters,
// histogram count/mean/p50/p95/p99) is compared exactly: integral quantities
// diff in u64 arithmetic (sign + magnitude, so counters near 2^64 never go
// through a double), floating quantities bit-for-bit. The report carries
// only the quantities that changed per cell, plus grid-level aggregates the
// threshold gate (`--fail-on`) evaluates against.
//
// Threshold grammar (docs/OBSERVABILITY.md):
//   spec       := clause (',' clause)*
//   clause     := name ('>' | '>=') number ['%']
//   name       := an aggregate quantity ("effort_mean", "delay_p99",
//                 "cells_changed", ...); a bare counter name ("events") is
//                 shorthand for its "_total" aggregate.
// A '%' limit is relative to the old value; a bare limit is absolute. A
// clause trips only on increases — improvements never fail the gate.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rstp/obs/json.h"
#include "rstp/obs/sinks.h"

namespace rstp::obs {

/// The join key: run identity plus `rep`, the 0-based occurrence index among
/// records with the same identity in file order (so repeated seeds still
/// pair up 1:1 and a dropped repetition shows as a missing cell).
struct CellKey : RunIdentity {
  std::uint64_t rep = 0;

  friend auto operator<=>(const CellKey&, const CellKey&) = default;
};

/// One quantity's old/new pair. Integral quantities keep the exact u64
/// values and diff as sign + magnitude; floating quantities (effort,
/// histogram means) diff as doubles. `old_v`/`new_v` mirror the integral
/// values as doubles for display and relative thresholds.
struct QuantityDelta {
  std::string name;
  bool integral = true;
  std::uint64_t old_u = 0;  ///< valid when integral
  std::uint64_t new_u = 0;  ///< valid when integral
  double old_v = 0;
  double new_v = 0;

  [[nodiscard]] bool changed() const;
  /// Exact for integral deltas below 2^53; the sign is always exact.
  [[nodiscard]] double delta() const;
  /// Relative change vs old, in percent; +/-HUGE_VAL when old == 0 and new
  /// differs, 0 when both are 0. The +HUGE_VAL convention keeps relative
  /// gates loud on a zero baseline: any regression from 0 exceeds every
  /// finite limit (and non-finite limits are rejected at parse time). A NaN
  /// input propagates to a NaN result, which evaluate_thresholds treats as a
  /// violation rather than letting NaN comparisons pass it silently.
  [[nodiscard]] double pct() const;

  friend bool operator==(const QuantityDelta&, const QuantityDelta&) = default;
};

/// A matched cell with at least one changed quantity; `deltas` holds only
/// the changed ones, in the order of the record's field table.
struct CellDiff {
  CellKey key;
  std::vector<QuantityDelta> deltas;

  friend bool operator==(const CellDiff&, const CellDiff&) = default;
};

struct DiffReport {
  std::uint64_t old_records = 0;
  std::uint64_t new_records = 0;
  std::uint64_t matched = 0;
  std::vector<CellKey> missing;      ///< cells only in the old series
  std::vector<CellKey> extra;        ///< cells only in the new series
  std::vector<CellDiff> cells;       ///< matched cells that changed, key order
  std::vector<QuantityDelta> aggregates;  ///< all aggregates, in report order

  /// Aggregate lookup by exact name, then by name + "_total" (the bare
  /// counter shorthand); nullptr when neither exists.
  [[nodiscard]] const QuantityDelta* find_aggregate(std::string_view name) const;

  friend bool operator==(const DiffReport&, const DiffReport&) = default;
};

/// Joins and diffs two record series (typically two read_run_metrics_jsonl
/// results). Aggregates cover: per-counter "_total" sums over matched pairs,
/// "end_time_total", "effort_mean"/"effort_max", "delay_p50/p95/p99" (mean
/// over matched cells of the per-cell data-delay percentile), and the join
/// health counts "cells_changed"/"cells_missing"/"cells_extra" (old side 0).
[[nodiscard]] DiffReport diff_metrics(const std::vector<RunMetricsRecord>& old_runs,
                                      const std::vector<RunMetricsRecord>& new_runs);

/// One --fail-on clause.
struct Threshold {
  std::string quantity;
  bool inclusive = false;  ///< ">=" (trips at the limit) vs ">"
  double limit = 0;
  bool relative = false;  ///< limit is a percentage of the old value
  std::string source;     ///< the original clause text, for messages
};

/// Thrown on a malformed threshold spec or an unknown quantity name; `token`
/// is the offending clause or name.
class ThresholdParseError : public std::runtime_error {
 public:
  ThresholdParseError(const std::string& what, std::string token)
      : std::runtime_error(what), token_(std::move(token)) {}
  [[nodiscard]] const std::string& token() const { return token_; }

 private:
  std::string token_;
};

/// Parses a comma-separated threshold spec; throws ThresholdParseError on a
/// malformed clause.
[[nodiscard]] std::vector<Threshold> parse_thresholds(std::string_view spec);

/// The canonical spelling of one clause — quantity, '>' or ">=", the limit's
/// shortest round-trip form, '%' when relative — which parse_thresholds
/// reads back to the same quantity, comparison, limit and unit.
[[nodiscard]] std::string to_string(const Threshold& threshold);

struct ThresholdViolation {
  Threshold threshold;
  QuantityDelta quantity;  ///< the aggregate that tripped
  double observed = 0;     ///< the measured increase (absolute or percent)
};

/// Evaluates thresholds against the report's aggregates. Throws
/// ThresholdParseError when a clause names no aggregate. A clause trips only
/// when the quantity increased past its limit.
[[nodiscard]] std::vector<ThresholdViolation> evaluate_thresholds(
    const DiffReport& report, const std::vector<Threshold>& thresholds);

/// One JSON object ("rstp-metrics-diff-v1") on a single line; integral
/// quantities keep their exact u64 lexemes, doubles their shortest
/// round-trip form, so obs::parse_json reads every value back exactly.
void write_diff_json(std::ostream& os, const DiffReport& report);

/// Human-readable rendering: join summary, per-cell changed quantities, and
/// the nonzero aggregates.
void print_diff_table(std::ostream& os, const DiffReport& report);

}  // namespace rstp::obs
