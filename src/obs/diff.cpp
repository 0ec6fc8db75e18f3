#include "rstp/obs/diff.h"

#include <charconv>
#include <cmath>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "rstp/common/check.h"

namespace rstp::obs {

namespace {

/// One extracted quantity: name + exact value in its native width.
struct Quantity {
  std::string_view name;
  bool integral = true;
  std::uint64_t u = 0;
  double v = 0;
};

[[nodiscard]] Quantity integral_quantity(std::string_view name, std::uint64_t value) {
  return Quantity{name, true, value, static_cast<double>(value)};
}

[[nodiscard]] Quantity floating_quantity(std::string_view name, double value) {
  return Quantity{name, false, 0, value};
}

/// The RunCounters catalog: (name, member) in struct order. Shared between
/// the per-cell quantities and the "_total" aggregates so the two can never
/// drift apart.
struct CounterField {
  std::string_view name;
  std::uint64_t RunCounters::* member;
};
struct ProtocolCounterField {
  std::string_view name;
  std::uint64_t ProtocolCounters::* member;
};

constexpr CounterField kCounterFields[] = {
    {"events", &RunCounters::events},
    {"data_sends", &RunCounters::data_sends},
    {"ack_sends", &RunCounters::ack_sends},
    {"data_recvs", &RunCounters::data_recvs},
    {"ack_recvs", &RunCounters::ack_recvs},
    {"dropped", &RunCounters::dropped},
    {"writes", &RunCounters::writes},
    {"transmitter_steps", &RunCounters::transmitter_steps},
    {"receiver_steps", &RunCounters::receiver_steps},
    {"transmitter_internal_steps", &RunCounters::transmitter_internal_steps},
    {"receiver_internal_steps", &RunCounters::receiver_internal_steps},
};

constexpr ProtocolCounterField kProtocolCounterFields[] = {
    {"blocks_encoded", &ProtocolCounters::blocks_encoded},
    {"blocks_decoded", &ProtocolCounters::blocks_decoded},
    {"acks_sent", &ProtocolCounters::acks_sent},
    {"acks_observed", &ProtocolCounters::acks_observed},
    {"retransmissions", &ProtocolCounters::retransmissions},
};

struct HistogramField {
  std::string_view name;
  Histogram RunMetrics::* member;
};

constexpr HistogramField kHistogramFields[] = {
    {"data_delay", &RunMetrics::data_delay},
    {"ack_delay", &RunMetrics::ack_delay},
    {"transmitter_gap", &RunMetrics::transmitter_gap},
    {"receiver_gap", &RunMetrics::receiver_gap},
};

/// Histogram summary names are materialized once ("data_delay_p50", ...) so
/// the per-cell extraction can hand out string_views.
[[nodiscard]] const std::vector<std::string>& histogram_quantity_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const HistogramField& h : kHistogramFields) {
      for (const std::string_view leaf : {"count", "mean", "p50", "p95", "p99"}) {
        out.push_back(std::string{h.name} + "_" + std::string{leaf});
      }
    }
    return out;
  }();
  return names;
}

/// Every per-cell quantity of a record, in a fixed catalog order. Both sides
/// of the join go through this one function, so positional pairing is safe.
[[nodiscard]] std::vector<Quantity> cell_quantities(const RunMetricsRecord& r) {
  std::vector<Quantity> out;
  out.reserve(40);
  out.push_back(floating_quantity("effort", r.effort));
  out.push_back(floating_quantity("gap_ratio", r.gap_ratio));
  out.push_back(floating_quantity("est_penalty", r.est_penalty));
  out.push_back(integral_quantity("est_c1_hat", static_cast<std::uint64_t>(r.est.c1_hat)));
  out.push_back(integral_quantity("est_c2_hat", static_cast<std::uint64_t>(r.est.c2_hat)));
  out.push_back(integral_quantity("est_d_hat", static_cast<std::uint64_t>(r.est.d_hat)));
  out.push_back(integral_quantity("est_gap_samples", r.est.gap_samples));
  out.push_back(integral_quantity("est_delay_samples", r.est.delay_samples));
  out.push_back(integral_quantity("est_resizes", r.est.resizes));
  out.push_back(integral_quantity("end_time", static_cast<std::uint64_t>(r.end_time)));
  out.push_back(integral_quantity("correct", r.correct ? 1 : 0));
  out.push_back(integral_quantity("quiescent", r.quiescent ? 1 : 0));
  // Megasession rows only (0 elsewhere). events_per_sec is deliberately NOT a
  // cell quantity: it is wall-clock, so cell-exact comparison would trip on
  // machine noise — the report gates it through the aggregates instead.
  out.push_back(integral_quantity("sessions", r.sessions));
  for (const CounterField& f : kCounterFields) {
    out.push_back(integral_quantity(f.name, r.metrics.counters.*f.member));
  }
  for (const ProtocolCounterField& f : kProtocolCounterFields) {
    out.push_back(integral_quantity(f.name, r.metrics.counters.protocol.*f.member));
  }
  const std::vector<std::string>& names = histogram_quantity_names();
  std::size_t name_index = 0;
  for (const HistogramField& h : kHistogramFields) {
    const Histogram& hist = r.metrics.*h.member;
    out.push_back(integral_quantity(names[name_index++], hist.count()));
    out.push_back(floating_quantity(names[name_index++], hist.configured() ? hist.mean() : 0));
    for (const double p : {50.0, 95.0, 99.0}) {
      const std::int64_t value = hist.configured() ? hist.percentile(p) : 0;
      out.push_back(integral_quantity(names[name_index++], static_cast<std::uint64_t>(value)));
    }
  }
  return out;
}

[[nodiscard]] QuantityDelta make_delta(std::string_view name, const Quantity& old_q,
                                       const Quantity& new_q) {
  RSTP_CHECK(old_q.integral == new_q.integral, "quantity catalogs disagree on integrality");
  QuantityDelta d;
  d.name = std::string{name};
  d.integral = old_q.integral;
  d.old_u = old_q.u;
  d.new_u = new_q.u;
  d.old_v = old_q.integral ? static_cast<double>(old_q.u) : old_q.v;
  d.new_v = new_q.integral ? static_cast<double>(new_q.u) : new_q.v;
  return d;
}

[[nodiscard]] CellKey key_of(const RunMetricsRecord& r, std::uint64_t rep) {
  return CellKey{r.protocol, r.c1, r.c2, r.d, r.k, r.input_bits, r.seed, rep};
}

/// Assigns each record its occurrence index among identical identities, in
/// file order, and returns the keyed records in key order.
[[nodiscard]] std::map<CellKey, const RunMetricsRecord*> keyed(
    const std::vector<RunMetricsRecord>& records) {
  std::map<CellKey, const RunMetricsRecord*> out;
  std::map<CellKey, std::uint64_t> reps;
  for (const RunMetricsRecord& r : records) {
    std::uint64_t& rep = reps[key_of(r, 0)];
    out.emplace(key_of(r, rep), &r);
    ++rep;
  }
  return out;
}

void append_number(std::ostream& os, const QuantityDelta& d, bool old_side) {
  if (d.integral) {
    os << (old_side ? d.old_u : d.new_u);
  } else {
    os << json_number(old_side ? d.old_v : d.new_v);
  }
}

void write_key_json(std::ostream& os, const CellKey& key) {
  os << "{\"protocol\":" << json_quote(key.protocol) << ",\"c1\":" << key.c1
     << ",\"c2\":" << key.c2 << ",\"d\":" << key.d << ",\"k\":" << key.k
     << ",\"input_bits\":" << key.input_bits << ",\"seed\":" << key.seed
     << ",\"rep\":" << key.rep << "}";
}

void write_deltas_json(std::ostream& os, const std::vector<QuantityDelta>& deltas) {
  os << "[";
  bool first = true;
  for (const QuantityDelta& d : deltas) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":" << json_quote(d.name) << ",\"int\":" << (d.integral ? "true" : "false")
       << ",\"old\":";
    append_number(os, d, true);
    os << ",\"new\":";
    append_number(os, d, false);
    os << "}";
  }
  os << "]";
}

/// Compact human form of a delta value: exact for integral, shortest
/// round-trip for doubles.
[[nodiscard]] std::string value_string(const QuantityDelta& d, bool old_side) {
  if (d.integral) return std::to_string(old_side ? d.old_u : d.new_u);
  return json_number(old_side ? d.old_v : d.new_v);
}

[[nodiscard]] std::string pct_string(const QuantityDelta& d) {
  const double pct = d.pct();
  if (std::isinf(pct)) return pct > 0 ? "+inf%" : "-inf%";
  std::ostringstream os;
  os << std::showpos << std::fixed << std::setprecision(2) << pct << "%";
  return os.str();
}

void print_key(std::ostream& os, const CellKey& key) {
  os << key.protocol << " c1=" << key.c1 << " c2=" << key.c2 << " d=" << key.d
     << " k=" << key.k << " n=" << key.input_bits << " seed=" << key.seed;
  if (key.rep != 0) os << " rep=" << key.rep;
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

  // Aggregate accumulators over matched pairs.
  RunCounters old_totals;
  RunCounters new_totals;
  std::uint64_t old_end_time = 0;
  std::uint64_t new_end_time = 0;
  double old_effort_sum = 0;
  double new_effort_sum = 0;
  double old_effort_max = 0;
  double new_effort_max = 0;
  double old_gap_sum = 0;
  double new_gap_sum = 0;
  double old_gap_max = 0;
  double new_gap_max = 0;
  double old_penalty_sum = 0;
  double new_penalty_sum = 0;
  double old_penalty_max = 0;
  double new_penalty_max = 0;
  double old_delay_p[3] = {0, 0, 0};
  double new_delay_p[3] = {0, 0, 0};
  std::uint64_t old_sessions = 0;
  std::uint64_t new_sessions = 0;
  double old_eps_sum = 0;
  double new_eps_sum = 0;

  for (const auto& [key, old_record] : old_cells) {
    const auto it = new_cells.find(key);
    if (it == new_cells.end()) {
      report.missing.push_back(key);
      continue;
    }
    const RunMetricsRecord& new_record = *it->second;
    ++report.matched;

    old_totals += old_record->metrics.counters;
    new_totals += new_record.metrics.counters;
    old_end_time += static_cast<std::uint64_t>(old_record->end_time);
    new_end_time += static_cast<std::uint64_t>(new_record.end_time);
    old_effort_sum += old_record->effort;
    new_effort_sum += new_record.effort;
    old_effort_max = std::max(old_effort_max, old_record->effort);
    new_effort_max = std::max(new_effort_max, new_record.effort);
    old_gap_sum += old_record->gap_ratio;
    new_gap_sum += new_record.gap_ratio;
    old_gap_max = std::max(old_gap_max, old_record->gap_ratio);
    new_gap_max = std::max(new_gap_max, new_record.gap_ratio);
    old_penalty_sum += old_record->est_penalty;
    new_penalty_sum += new_record.est_penalty;
    old_penalty_max = std::max(old_penalty_max, old_record->est_penalty);
    new_penalty_max = std::max(new_penalty_max, new_record.est_penalty);
    old_sessions += old_record->sessions;
    new_sessions += new_record.sessions;
    old_eps_sum += old_record->events_per_sec;
    new_eps_sum += new_record.events_per_sec;
    const double percentiles[3] = {50.0, 95.0, 99.0};
    for (std::size_t i = 0; i < 3; ++i) {
      const Histogram& old_h = old_record->metrics.data_delay;
      const Histogram& new_h = new_record.metrics.data_delay;
      old_delay_p[i] +=
          old_h.configured() ? static_cast<double>(old_h.percentile(percentiles[i])) : 0;
      new_delay_p[i] +=
          new_h.configured() ? static_cast<double>(new_h.percentile(percentiles[i])) : 0;
    }

    const std::vector<Quantity> old_q = cell_quantities(*old_record);
    const std::vector<Quantity> new_q = cell_quantities(new_record);
    RSTP_CHECK_EQ(old_q.size(), new_q.size(), "quantity catalogs differ in size");
    CellDiff cell;
    cell.key = key;
    for (std::size_t i = 0; i < old_q.size(); ++i) {
      RSTP_CHECK(old_q[i].name == new_q[i].name, "quantity catalogs differ in order");
      QuantityDelta d = make_delta(old_q[i].name, old_q[i], new_q[i]);
      if (d.changed()) cell.deltas.push_back(std::move(d));
    }
    if (!cell.deltas.empty()) report.cells.push_back(std::move(cell));
  }
  for (const auto& [key, record] : new_cells) {
    (void)record;
    if (!old_cells.contains(key)) report.extra.push_back(key);
  }

  const auto add_integral = [&](std::string_view name, std::uint64_t old_value,
                                std::uint64_t new_value) {
    report.aggregates.push_back(
        make_delta(name, integral_quantity(name, old_value), integral_quantity(name, new_value)));
  };
  const auto add_floating = [&](std::string_view name, double old_value, double new_value) {
    report.aggregates.push_back(make_delta(name, floating_quantity(name, old_value),
                                           floating_quantity(name, new_value)));
  };
  for (const CounterField& f : kCounterFields) {
    add_integral(std::string{f.name} + "_total", old_totals.*f.member, new_totals.*f.member);
  }
  for (const ProtocolCounterField& f : kProtocolCounterFields) {
    add_integral(std::string{f.name} + "_total", old_totals.protocol.*f.member,
                 new_totals.protocol.*f.member);
  }
  add_integral("end_time_total", old_end_time, new_end_time);
  const double matched = report.matched == 0 ? 1 : static_cast<double>(report.matched);
  add_floating("effort_mean", old_effort_sum / matched, new_effort_sum / matched);
  add_floating("effort_max", old_effort_max, new_effort_max);
  add_floating("gap_ratio_mean", old_gap_sum / matched, new_gap_sum / matched);
  add_floating("gap_ratio_max", old_gap_max, new_gap_max);
  add_floating("est_penalty_mean", old_penalty_sum / matched, new_penalty_sum / matched);
  add_floating("est_penalty_max", old_penalty_max, new_penalty_max);
  add_floating("delay_p50", old_delay_p[0] / matched, new_delay_p[0] / matched);
  add_floating("delay_p95", old_delay_p[1] / matched, new_delay_p[1] / matched);
  add_floating("delay_p99", old_delay_p[2] / matched, new_delay_p[2] / matched);
  add_integral("sessions_total", old_sessions, new_sessions);
  add_floating("events_per_sec_mean", old_eps_sum / matched, new_eps_sum / matched);
  // The gate only trips on positive deltas, so a throughput *decrease* is
  // gated by reporting the percentage drop itself as the new value (same
  // old=0/new=value construction as cells_changed below): 'events_per_sec_drop>N'
  // fails when new throughput fell more than N% below old. 0 — and therefore
  // inert — whenever the old side carries no throughput figures at all.
  const double eps_drop =
      old_eps_sum > 0 ? std::max(0.0, 100.0 * (1.0 - new_eps_sum / old_eps_sum)) : 0;
  add_floating("events_per_sec_drop", 0, eps_drop);
  add_integral("cells_changed", 0, report.cells.size());
  add_integral("cells_missing", 0, report.missing.size());
  add_integral("cells_extra", 0, report.extra.size());
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
    for (const QuantityDelta& d : cell.deltas) {
      os << "    " << std::left << std::setw(28) << d.name << std::right << " "
         << value_string(d, true) << " -> " << value_string(d, false) << "  ("
         << pct_string(d) << ")\n";
    }
  }
  os << "aggregates (changed):\n";
  bool any = false;
  for (const QuantityDelta& d : report.aggregates) {
    if (!d.changed()) continue;
    any = true;
    os << "  " << std::left << std::setw(28) << d.name << std::right << " "
       << value_string(d, true) << " -> " << value_string(d, false) << "  ("
       << pct_string(d) << ")\n";
  }
  if (!any) os << "  (none)\n";
}

}  // namespace rstp::obs
