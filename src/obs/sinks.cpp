#include "rstp/obs/sinks.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>

#include "rstp/common/check.h"
#include "rstp/obs/json.h"

namespace rstp::obs {

namespace {

constexpr std::string_view kSchema = "rstp-run-metrics-v1";

void write_histogram(std::ostream& os, const Histogram& h) {
  if (!h.configured()) {
    os << "null";
    return;
  }
  os << "{\"lo\":" << h.lower_bound() << ",\"width\":" << h.bucket_width()
     << ",\"count\":" << h.count() << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
     << ",\"max\":" << h.max() << ",\"p50\":" << h.percentile(50)
     << ",\"p95\":" << h.percentile(95) << ",\"p99\":" << h.percentile(99) << ",\"buckets\":[";
  for (std::size_t i = 0; i < h.bucket_count(); ++i) {
    if (i > 0) os << ',';
    os << h.bucket(i);
  }
  os << "]}";
}

/// Throws a JsonParseError naming the first key of `object` that is not in
/// `known`. The reader keeps no field it does not know, so accepting one
/// would let a baseline silently lose it.
void reject_unknown_keys(const JsonValue& object, std::initializer_list<std::string_view> known,
                         std::string_view where) {
  for (const auto& [key, value] : object.members) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw JsonParseError(std::string{where} + ": unknown key " + json_quote(key));
    }
  }
}

/// The histogram under `name` in a record's "hist" object. Checks every
/// invariant Histogram::from_parts asserts, so a corrupt record is a
/// JsonParseError (which the reader tags with its line), not a contract
/// violation.
Histogram parse_histogram(const JsonValue& hist, const std::string& name) {
  const JsonValue* v = hist.find(name);
  if (v == nullptr || v->kind == JsonValue::Kind::Null) return Histogram{};
  const auto invalid = [&](const std::string& what) {
    return JsonParseError("histogram " + name + ": " + what);
  };
  if (!v->is_object()) throw invalid("must be an object or null");
  const JsonValue* buckets = v->find("buckets");
  if (buckets == nullptr || buckets->kind != JsonValue::Kind::Array) {
    throw invalid("is missing its buckets array");
  }
  if (buckets->items.empty()) throw invalid("has no buckets");
  std::vector<std::uint64_t> counts;
  counts.reserve(buckets->items.size());
  std::uint64_t total = 0;
  for (const JsonValue& item : buckets->items) {
    counts.push_back(item.to_u64());
    if (counts.back() > std::numeric_limits<std::uint64_t>::max() - total) {
      throw invalid("bucket counts overflow");
    }
    total += counts.back();
  }
  const std::int64_t width = v->i64_or("width", 1);
  const std::uint64_t count = v->u64_or("count", 0);
  const std::int64_t min = v->i64_or("min", 0);
  const std::int64_t max = v->i64_or("max", 0);
  if (width < 1) throw invalid("bucket width " + std::to_string(width) + " is not positive");
  if (total != count) {
    throw invalid("buckets sum to " + std::to_string(total) + ", count is " +
                  std::to_string(count));
  }
  if (count > 0 && min > max) {
    throw invalid("min " + std::to_string(min) + " exceeds max " + std::to_string(max));
  }
  // The percentiles are written for readers of the file; from_parts
  // recomputes them from the buckets.
  reject_unknown_keys(*v,
                      {"lo", "width", "count", "sum", "min", "max", "p50", "p95", "p99", "buckets"},
                      "histogram " + name);
  return Histogram::from_parts(v->i64_or("lo", 0), width, std::move(counts), count,
                               v->i64_or("sum", 0), min, max);
}

RunCounters parse_counters(const JsonValue& line) {
  const JsonValue* v = line.find("counters");
  if (v == nullptr || !v->is_object()) {
    throw JsonParseError("record is missing its counters object");
  }
  RunCounters c;
  c.events = v->u64_or("events", 0);
  c.data_sends = v->u64_or("data_sends", 0);
  c.ack_sends = v->u64_or("ack_sends", 0);
  c.data_recvs = v->u64_or("data_recvs", 0);
  c.ack_recvs = v->u64_or("ack_recvs", 0);
  c.dropped = v->u64_or("dropped", 0);
  c.writes = v->u64_or("writes", 0);
  c.transmitter_steps = v->u64_or("transmitter_steps", 0);
  c.receiver_steps = v->u64_or("receiver_steps", 0);
  c.transmitter_internal_steps = v->u64_or("transmitter_internal_steps", 0);
  c.receiver_internal_steps = v->u64_or("receiver_internal_steps", 0);
  c.protocol.blocks_encoded = v->u64_or("blocks_encoded", 0);
  c.protocol.blocks_decoded = v->u64_or("blocks_decoded", 0);
  c.protocol.acks_sent = v->u64_or("acks_sent", 0);
  c.protocol.acks_observed = v->u64_or("acks_observed", 0);
  c.protocol.retransmissions = v->u64_or("retransmissions", 0);
  reject_unknown_keys(*v,
                      {"events", "data_sends", "ack_sends", "data_recvs", "ack_recvs", "dropped",
                       "writes", "transmitter_steps", "receiver_steps",
                       "transmitter_internal_steps", "receiver_internal_steps", "blocks_encoded",
                       "blocks_decoded", "acks_sent", "acks_observed", "retransmissions"},
                      "counters");
  return c;
}

}  // namespace

void write_run_metrics_jsonl(std::ostream& os, const RunMetricsRecord& record) {
  const RunCounters& c = record.metrics.counters;
  os << "{\"schema\":" << json_quote(kSchema)
     << ",\"protocol\":" << json_quote(record.protocol) << ",\"c1\":" << record.c1
     << ",\"c2\":" << record.c2 << ",\"d\":" << record.d << ",\"k\":" << record.k
     << ",\"input_bits\":" << record.input_bits << ",\"seed\":" << record.seed
     << ",\"effort\":" << json_number(record.effort)
     << ",\"gap_ratio\":" << json_number(record.gap_ratio)
     << ",\"est_penalty\":" << json_number(record.est_penalty)
     << ",\"est\":{\"c1_hat\":" << record.est.c1_hat << ",\"c2_hat\":" << record.est.c2_hat
     << ",\"d_hat\":" << record.est.d_hat << ",\"gap_samples\":" << record.est.gap_samples
     << ",\"delay_samples\":" << record.est.delay_samples
     << ",\"resizes\":" << record.est.resizes << "}"
     << ",\"sessions\":" << record.sessions
     << ",\"events_per_sec\":" << json_number(record.events_per_sec)
     << ",\"end_time\":" << record.end_time
     << ",\"correct\":" << (record.correct ? "true" : "false")
     << ",\"quiescent\":" << (record.quiescent ? "true" : "false") << ",\"counters\":{"
     << "\"events\":" << c.events << ",\"data_sends\":" << c.data_sends
     << ",\"ack_sends\":" << c.ack_sends << ",\"data_recvs\":" << c.data_recvs
     << ",\"ack_recvs\":" << c.ack_recvs << ",\"dropped\":" << c.dropped
     << ",\"writes\":" << c.writes << ",\"transmitter_steps\":" << c.transmitter_steps
     << ",\"receiver_steps\":" << c.receiver_steps
     << ",\"transmitter_internal_steps\":" << c.transmitter_internal_steps
     << ",\"receiver_internal_steps\":" << c.receiver_internal_steps
     << ",\"blocks_encoded\":" << c.protocol.blocks_encoded
     << ",\"blocks_decoded\":" << c.protocol.blocks_decoded
     << ",\"acks_sent\":" << c.protocol.acks_sent
     << ",\"acks_observed\":" << c.protocol.acks_observed
     << ",\"retransmissions\":" << c.protocol.retransmissions << "},\"hist\":{";
  os << "\"data_delay\":";
  write_histogram(os, record.metrics.data_delay);
  os << ",\"ack_delay\":";
  write_histogram(os, record.metrics.ack_delay);
  os << ",\"transmitter_gap\":";
  write_histogram(os, record.metrics.transmitter_gap);
  os << ",\"receiver_gap\":";
  write_histogram(os, record.metrics.receiver_gap);
  os << "}}\n";
}

std::vector<RunMetricsRecord> read_run_metrics_jsonl(std::istream& is) {
  std::vector<RunMetricsRecord> out;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    try {
      const JsonValue doc = parse_json(line);
      if (!doc.is_object()) throw JsonParseError("line is not a JSON object");
      const std::string schema = doc.string_or("schema", "");
      if (schema != kSchema) {
        throw JsonParseError("unsupported schema '" + schema + "' (want '" +
                             std::string{kSchema} + "')");
      }
      RunMetricsRecord record;
      record.protocol = doc.string_or("protocol", "?");
      record.c1 = doc.i64_or("c1", 0);
      record.c2 = doc.i64_or("c2", 0);
      record.d = doc.i64_or("d", 0);
      const std::uint64_t k = doc.u64_or("k", 2);
      if (k > std::numeric_limits<std::uint32_t>::max()) {
        throw JsonParseError("k " + std::to_string(k) + " does not fit 32 bits");
      }
      record.k = static_cast<std::uint32_t>(k);
      record.input_bits = doc.u64_or("input_bits", 0);
      record.seed = doc.u64_or("seed", 0);
      record.effort = doc.number_or("effort", 0);
      // Absent in pre-adversary baselines; defaulting keeps them parseable.
      record.gap_ratio = doc.number_or("gap_ratio", 0);
      // Same back-compat contract for the estimator fields.
      record.est_penalty = doc.number_or("est_penalty", 0);
      const JsonValue* est = doc.find("est");
      if (est != nullptr && est->is_object()) {
        record.est.c1_hat = est->i64_or("c1_hat", 0);
        record.est.c2_hat = est->i64_or("c2_hat", 0);
        record.est.d_hat = est->i64_or("d_hat", 0);
        record.est.gap_samples = est->u64_or("gap_samples", 0);
        record.est.delay_samples = est->u64_or("delay_samples", 0);
        record.est.resizes = est->u64_or("resizes", 0);
        reject_unknown_keys(
            *est, {"c1_hat", "c2_hat", "d_hat", "gap_samples", "delay_samples", "resizes"}, "est");
      }
      // Multiplexed-run fields, absent before the megasession engine.
      record.sessions = doc.u64_or("sessions", 0);
      record.events_per_sec = doc.number_or("events_per_sec", 0);
      record.end_time = doc.i64_or("end_time", 0);
      record.correct = doc.bool_or("correct", false);
      record.quiescent = doc.bool_or("quiescent", false);
      record.metrics.counters = parse_counters(doc);
      const JsonValue* hist = doc.find("hist");
      if (hist != nullptr && hist->is_object()) {
        record.metrics.data_delay = parse_histogram(*hist, "data_delay");
        record.metrics.ack_delay = parse_histogram(*hist, "ack_delay");
        record.metrics.transmitter_gap = parse_histogram(*hist, "transmitter_gap");
        record.metrics.receiver_gap = parse_histogram(*hist, "receiver_gap");
        reject_unknown_keys(*hist, {"data_delay", "ack_delay", "transmitter_gap", "receiver_gap"},
                            "hist");
      }
      reject_unknown_keys(doc,
                          {"schema", "protocol", "c1", "c2", "d", "k", "input_bits", "seed",
                           "effort", "gap_ratio", "est_penalty", "est", "sessions",
                           "events_per_sec", "end_time", "correct", "quiescent", "counters",
                           "hist"},
                          "record");
      out.push_back(std::move(record));
    } catch (const JsonParseError& e) {
      throw JsonParseError("line " + std::to_string(line_number) + ": " + e.what());
    }
  }
  return out;
}

void print_metrics_table(std::ostream& os, const std::vector<RunMetricsRecord>& records) {
  os << std::left << std::setw(10) << "protocol" << std::right << std::setw(4) << "c1"
     << std::setw(5) << "c2" << std::setw(6) << "d" << std::setw(4) << "k" << std::setw(6)
     << "bits" << std::setw(9) << "effort" << std::setw(9) << "d.sends" << std::setw(9)
     << "a.sends" << std::setw(7) << "drops" << std::setw(8) << "writes" << std::setw(6)
     << "p50" << std::setw(6) << "p95" << std::setw(6) << "p99" << std::setw(5) << "ok"
     << std::setw(7) << "quiet" << '\n';
  RunCounters totals;
  for (const RunMetricsRecord& r : records) {
    const RunCounters& c = r.metrics.counters;
    totals += c;
    const Histogram& delay = r.metrics.data_delay;
    os << std::left << std::setw(10) << r.protocol << std::right << std::setw(4) << r.c1
       << std::setw(5) << r.c2 << std::setw(6) << r.d << std::setw(4) << r.k << std::setw(6)
       << r.input_bits << std::setw(9) << std::fixed << std::setprecision(2) << r.effort
       << std::setw(9) << c.data_sends << std::setw(9) << c.ack_sends << std::setw(7)
       << c.dropped << std::setw(8) << c.writes;
    if (delay.configured() && delay.count() > 0) {
      os << std::setw(6) << delay.percentile(50) << std::setw(6) << delay.percentile(95)
         << std::setw(6) << delay.percentile(99);
    } else {
      os << std::setw(6) << "-" << std::setw(6) << "-" << std::setw(6) << "-";
    }
    os << std::setw(5) << (r.correct ? "yes" : "NO") << std::setw(7)
       << (r.quiescent ? "yes" : "NO") << '\n';
  }
  os << "runs: " << records.size() << "  events: " << totals.events
     << "  data sends: " << totals.data_sends << "  ack sends: " << totals.ack_sends
     << "  drops: " << totals.dropped << "  writes: " << totals.writes
     << "  blocks enc/dec: " << totals.protocol.blocks_encoded << "/"
     << totals.protocol.blocks_decoded << "  acks sent/observed: " << totals.protocol.acks_sent
     << "/" << totals.protocol.acks_observed << '\n';
}

}  // namespace rstp::obs
