#include "rstp/obs/diff.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <type_traits>
#include <utility>

#include "record_fields.h"

namespace rstp::obs {

namespace {

using record_fields::Diff;
using record_fields::Field;
using record_fields::kFields;

/// The delta of one quantity: a double as itself, an integer exactly (a
/// signed one as its two's-complement u64, a bool as 0 or 1).
template <class T>
[[nodiscard]] QuantityDelta make_delta(std::string name, T old_value, T new_value) {
  QuantityDelta d;
  d.name = std::move(name);
  if constexpr (std::is_same_v<T, double>) {
    d.integral = false;
    d.old_v = old_value;
    d.new_v = new_value;
  } else {
    d.old_u = static_cast<std::uint64_t>(old_value);
    d.new_u = static_cast<std::uint64_t>(new_value);
    d.old_v = static_cast<double>(d.old_u);
    d.new_v = static_cast<double>(d.new_u);
  }
  return d;
}

/// The percentiles a histogram is compared and aggregated at.
constexpr std::pair<std::string_view, double> kPercentiles[] = {
    {"_p50", 50.0}, {"_p95", 95.0}, {"_p99", 99.0}};

[[nodiscard]] std::int64_t percentile_or_zero(const Histogram& h, double p) {
  return h.configured() ? h.percentile(p) : 0;
}

/// The changed per-cell quantities of a matched pair, in table order: every
/// field but the key and the wall-clock ones, a histogram as its count,
/// mean and percentiles.
[[nodiscard]] std::vector<QuantityDelta> cell_deltas(const RunMetricsRecord& old_record,
                                                     const RunMetricsRecord& new_record) {
  std::vector<QuantityDelta> out;
  for (const Field& f : kFields) {
    if (record_fields::is_key(f) || f.diff == Diff::wall_mean) continue;
    const std::string name =
        std::string{record_fields::object_of(f).diff_prefix} + std::string{f.name};
    record_fields::visit(
        f,
        [&](const auto& o, const auto& n) {
          using T = std::remove_cvref_t<decltype(o)>;
          if constexpr (std::is_same_v<T, Histogram>) {
            out.push_back(make_delta(name + "_count", o.count(), n.count()));
            out.push_back(make_delta(name + "_mean", o.configured() ? o.mean() : 0,
                                     n.configured() ? n.mean() : 0));
            for (const auto& [suffix, p] : kPercentiles) {
              out.push_back(make_delta(name + std::string{suffix}, percentile_or_zero(o, p),
                                       percentile_or_zero(n, p)));
            }
          } else if constexpr (!std::is_same_v<T, std::string>) {
            out.push_back(make_delta(name, o, n));
          }
        },
        old_record, new_record);
  }
  std::erase_if(out, [](const QuantityDelta& d) { return !d.changed(); });
  return out;
}

/// One side's running aggregate of one field over the matched cells.
struct Accumulator {
  std::uint64_t total = 0;
  double sum = 0;
  double max = 0;
  double percentile_sum[std::size(kPercentiles)] = {};

  template <class T>
  void add(const T& value) {
    if constexpr (std::is_same_v<T, Histogram>) {
      for (std::size_t i = 0; i < std::size(kPercentiles); ++i) {
        percentile_sum[i] += static_cast<double>(percentile_or_zero(value, kPercentiles[i].second));
      }
    } else if constexpr (std::is_same_v<T, double>) {
      sum += value;
      max = std::max(max, value);
    } else if constexpr (!std::is_same_v<T, std::string>) {
      total += static_cast<std::uint64_t>(value);
    }
  }
};

/// Assigns each record its occurrence index among identical identities, in
/// file order, and returns the keyed records in key order.
[[nodiscard]] std::map<CellKey, const RunMetricsRecord*> keyed(
    const std::vector<RunMetricsRecord>& records) {
  std::map<CellKey, const RunMetricsRecord*> out;
  std::map<CellKey, std::uint64_t> reps;
  for (const RunMetricsRecord& r : records) out.emplace(CellKey{r, reps[CellKey{r, 0}]++}, &r);
  return out;
}

/// Compact form of a delta value, in text and JSON alike: exact for
/// integral, shortest round-trip for doubles.
[[nodiscard]] std::string value_string(const QuantityDelta& d, bool old_side) {
  if (d.integral) return std::to_string(old_side ? d.old_u : d.new_u);
  return json_number(old_side ? d.old_v : d.new_v);
}

void write_key_json(std::ostream& os, const CellKey& key) {
  char separator = '{';
  for (const Field& f : kFields) {
    record_fields::visit(
        f,
        [&](const auto& value) {
          os << std::exchange(separator, ',') << '"' << f.name << "\":";
          record_fields::write_scalar(os, value);
        },
        key);
  }
  os << ",\"rep\":" << key.rep << "}";
}

void write_deltas_json(std::ostream& os, const std::vector<QuantityDelta>& deltas) {
  os << "[";
  bool first = true;
  for (const QuantityDelta& d : deltas) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":" << json_quote(d.name) << ",\"int\":" << (d.integral ? "true" : "false")
       << ",\"old\":" << value_string(d, true) << ",\"new\":" << value_string(d, false) << "}";
  }
  os << "]";
}

[[nodiscard]] std::string pct_string(const QuantityDelta& d) {
  const double pct = d.pct();
  if (std::isinf(pct)) return pct > 0 ? "+inf%" : "-inf%";
  std::ostringstream os;
  os << std::showpos << std::fixed << std::setprecision(2) << pct << "%";
  return os.str();
}

/// The protocol, then ` label=value` for each other key field.
void print_key(std::ostream& os, const CellKey& key) {
  for (const Field& f : kFields) {
    record_fields::visit(
        f,
        [&](const auto& value) {
          if constexpr (!std::is_same_v<std::remove_cvref_t<decltype(value)>, std::string>) {
            os << ' ' << (f.alias.empty() ? f.name : f.alias) << '=';
          }
          os << value;
        },
        key);
  }
  if (key.rep != 0) os << " rep=" << key.rep;
}

/// One changed quantity's row: name, old -> new, relative change.
void print_delta(std::ostream& os, std::string_view indent, const QuantityDelta& d) {
  os << indent << std::left << std::setw(28) << d.name << std::right << " "
     << value_string(d, true) << " -> " << value_string(d, false) << "  (" << pct_string(d)
     << ")\n";
}

}  // namespace

bool QuantityDelta::changed() const {
  return integral ? old_u != new_u : old_v != new_v;
}

double QuantityDelta::delta() const {
  if (!integral) return new_v - old_v;
  // Sign + magnitude in u64 so counters near 2^64 keep an exact sign and a
  // magnitude that is exact up to 2^53.
  return new_u >= old_u ? static_cast<double>(new_u - old_u)
                        : -static_cast<double>(old_u - new_u);
}

double QuantityDelta::pct() const {
  if (!changed()) return 0;
  const double base = integral ? static_cast<double>(old_u) : old_v;
  if (base == 0) return delta() > 0 ? HUGE_VAL : -HUGE_VAL;
  return delta() / std::abs(base) * 100.0;
}

const QuantityDelta* DiffReport::find_aggregate(std::string_view name) const {
  for (const QuantityDelta& a : aggregates) {
    if (a.name == name) return &a;
  }
  const std::string total = std::string{name} + "_total";
  for (const QuantityDelta& a : aggregates) {
    if (a.name == total) return &a;
  }
  return nullptr;
}

DiffReport diff_metrics(const std::vector<RunMetricsRecord>& old_runs,
                        const std::vector<RunMetricsRecord>& new_runs) {
  DiffReport report;
  report.old_records = old_runs.size();
  report.new_records = new_runs.size();
  const std::map<CellKey, const RunMetricsRecord*> old_cells = keyed(old_runs);
  const std::map<CellKey, const RunMetricsRecord*> new_cells = keyed(new_runs);

  // Aggregate accumulators over matched pairs, old and new side per field.
  std::vector<std::pair<Accumulator, Accumulator>> sides(std::size(kFields));

  for (const auto& [key, old_record] : old_cells) {
    const auto it = new_cells.find(key);
    if (it == new_cells.end()) {
      report.missing.push_back(key);
      continue;
    }
    ++report.matched;
    for (std::size_t i = 0; i < std::size(kFields); ++i) {
      if (kFields[i].diff == Diff::cell) continue;
      record_fields::visit(
          kFields[i],
          [&side = sides[i]](const auto& o, const auto& n) {
            side.first.add(o);
            side.second.add(n);
          },
          *old_record, *it->second);
    }
    std::vector<QuantityDelta> deltas = cell_deltas(*old_record, *it->second);
    if (!deltas.empty()) report.cells.push_back(CellDiff{key, std::move(deltas)});
  }
  for (const auto& [key, record] : new_cells) {
    if (!old_cells.contains(key)) report.extra.push_back(key);
  }

  std::vector<QuantityDelta>& aggregates = report.aggregates;
  const double matched = report.matched == 0 ? 1 : static_cast<double>(report.matched);
  std::vector<std::size_t> by_rank;
  for (std::size_t i = 0; i < std::size(kFields); ++i) {
    if (kFields[i].diff != Diff::cell) by_rank.push_back(i);
  }
  std::ranges::stable_sort(by_rank, {}, [](std::size_t i) { return kFields[i].rank; });
  for (const std::size_t i : by_rank) {
    const Field& f = kFields[i];
    const auto& [o, n] = sides[i];
    const std::string stem{f.alias.empty() ? f.name : f.alias};
    switch (f.diff) {
      case Diff::cell:
        break;
      case Diff::total:
        aggregates.push_back(make_delta(stem + "_total", o.total, n.total));
        break;
      case Diff::mean_max:
        aggregates.push_back(make_delta(stem + "_mean", o.sum / matched, n.sum / matched));
        aggregates.push_back(make_delta(stem + "_max", o.max, n.max));
        break;
      case Diff::percentiles:
        for (std::size_t p = 0; p < std::size(kPercentiles); ++p) {
          aggregates.push_back(make_delta(stem + std::string{kPercentiles[p].first},
                                          o.percentile_sum[p] / matched,
                                          n.percentile_sum[p] / matched));
        }
        break;
      case Diff::wall_mean:
        aggregates.push_back(make_delta(stem + "_mean", o.sum / matched, n.sum / matched));
        // The gate only trips on positive deltas, so a throughput *decrease*
        // is gated by reporting the percentage drop itself as the new value
        // (same old=0/new=value construction as cells_changed below):
        // '<name>_drop>N' fails when the new mean fell more than N% below the
        // old. 0 — and therefore inert — whenever the old side carries none.
        aggregates.push_back(make_delta(
            stem + "_drop", 0.0, o.sum > 0 ? std::max(0.0, 100.0 * (1.0 - n.sum / o.sum)) : 0));
        break;
    }
  }
  for (const auto& [name, count] : {std::pair{"cells_changed", report.cells.size()},
                                    std::pair{"cells_missing", report.missing.size()},
                                    std::pair{"cells_extra", report.extra.size()}}) {
    aggregates.push_back(make_delta<std::uint64_t>(name, 0, count));
  }
  return report;
}

std::vector<Threshold> parse_thresholds(std::string_view spec) {
  std::vector<Threshold> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string_view::npos) comma = spec.size();
    std::string_view clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim surrounding whitespace; an empty clause (trailing comma) is an
    // error so a typo like 'a>1,,b>2' cannot silently weaken the gate.
    while (!clause.empty() && clause.front() == ' ') clause.remove_prefix(1);
    while (!clause.empty() && clause.back() == ' ') clause.remove_suffix(1);
    const std::string clause_text{clause};
    if (clause.empty()) {
      throw ThresholdParseError("empty threshold clause", clause_text);
    }
    const std::size_t gt = clause.find('>');
    if (gt == std::string_view::npos || gt == 0) {
      throw ThresholdParseError("threshold clause needs the form name>limit", clause_text);
    }
    Threshold t;
    t.source = clause_text;
    t.quantity = std::string{clause.substr(0, gt)};
    while (!t.quantity.empty() && t.quantity.back() == ' ') t.quantity.pop_back();
    std::string_view rest = clause.substr(gt + 1);
    if (!rest.empty() && rest.front() == '=') {
      t.inclusive = true;
      rest.remove_prefix(1);
    }
    while (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
    if (!rest.empty() && rest.back() == '%') {
      t.relative = true;
      rest.remove_suffix(1);
    }
    const auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), t.limit);
    if (ec != std::errc{} || ptr != rest.data() + rest.size() || rest.empty()) {
      throw ThresholdParseError("threshold limit is not a number", clause_text);
    }
    if (!std::isfinite(t.limit)) {
      // from_chars happily parses "nan"/"inf", and every comparison against
      // NaN is false — a 'name>nan' gate would silently pass everything.
      throw ThresholdParseError("threshold limit must be finite", clause_text);
    }
    if (t.limit < 0) {
      throw ThresholdParseError("threshold limit must be non-negative", clause_text);
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::string to_string(const Threshold& threshold) {
  return threshold.quantity + (threshold.inclusive ? ">=" : ">") + json_number(threshold.limit) +
         (threshold.relative ? "%" : "");
}

std::vector<ThresholdViolation> evaluate_thresholds(const DiffReport& report,
                                                    const std::vector<Threshold>& thresholds) {
  std::vector<ThresholdViolation> out;
  for (const Threshold& t : thresholds) {
    const QuantityDelta* q = report.find_aggregate(t.quantity);
    if (q == nullptr) {
      throw ThresholdParseError("unknown gate quantity", t.quantity);
    }
    const double observed = t.relative ? q->pct() : q->delta();
    if (std::isnan(observed)) {
      // A NaN measurement (e.g. a NaN value leaking into a record) compares
      // false against everything; without this it would pass every gate. A
      // gate that cannot certify its quantity must fail loud.
      out.push_back(ThresholdViolation{t, *q, observed});
      continue;
    }
    if (observed <= 0) continue;  // improvements and no-ops never trip
    const bool tripped = t.inclusive ? observed >= t.limit : observed > t.limit;
    if (tripped) out.push_back(ThresholdViolation{t, *q, observed});
  }
  return out;
}

void write_diff_json(std::ostream& os, const DiffReport& report) {
  os << "{\"schema\":\"rstp-metrics-diff-v1\",\"old_records\":" << report.old_records
     << ",\"new_records\":" << report.new_records << ",\"matched\":" << report.matched;
  const auto write_keys = [&os](std::string_view field, const std::vector<CellKey>& keys) {
    os << ",\"" << field << "\":[";
    bool first = true;
    for (const CellKey& key : keys) {
      if (!first) os << ",";
      first = false;
      write_key_json(os, key);
    }
    os << "]";
  };
  write_keys("missing", report.missing);
  write_keys("extra", report.extra);
  os << ",\"cells\":[";
  bool first = true;
  for (const CellDiff& cell : report.cells) {
    if (!first) os << ",";
    first = false;
    os << "{\"key\":";
    write_key_json(os, cell.key);
    os << ",\"deltas\":";
    write_deltas_json(os, cell.deltas);
    os << "}";
  }
  os << "],\"aggregates\":";
  write_deltas_json(os, report.aggregates);
  os << "}\n";
}

void print_diff_table(std::ostream& os, const DiffReport& report) {
  os << "diff: " << report.old_records << " old / " << report.new_records
     << " new records, " << report.matched << " matched, " << report.cells.size()
     << " changed, " << report.missing.size() << " missing, " << report.extra.size()
     << " extra\n";
  for (const CellKey& key : report.missing) {
    os << "  missing (old only): ";
    print_key(os, key);
    os << "\n";
  }
  for (const CellKey& key : report.extra) {
    os << "  extra (new only):   ";
    print_key(os, key);
    os << "\n";
  }
  for (const CellDiff& cell : report.cells) {
    os << "  cell ";
    print_key(os, cell.key);
    os << "\n";
    for (const QuantityDelta& d : cell.deltas) print_delta(os, "    ", d);
  }
  os << "aggregates (changed):\n";
  bool any = false;
  for (const QuantityDelta& d : report.aggregates) {
    if (!d.changed()) continue;
    any = true;
    print_delta(os, "  ", d);
  }
  if (!any) os << "  (none)\n";
}

}  // namespace rstp::obs
