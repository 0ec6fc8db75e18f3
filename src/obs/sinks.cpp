#include "rstp/obs/sinks.h"

#include <algorithm>
#include <charconv>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "rstp/common/check.h"
#include "rstp/obs/json.h"
#include "record_fields.h"

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
/// `known` or that repeats an earlier one. The reader keeps no field it does
/// not know and reads only the first of a repeated key, so accepting either
/// would let a baseline silently lose a value.
void reject_unknown_keys(const JsonValue& object, const std::vector<std::string_view>& known,
                         std::string_view where) {
  for (const auto& [key, value] : object.members) {
    if (std::ranges::find(known, key) == known.end()) {
      throw JsonParseError(std::string{where} + ": unknown key " + json_quote(key));
    }
    if (object.find(key) != &value) {
      throw JsonParseError(std::string{where} + ": duplicate key " + json_quote(key));
    }
  }
}

/// The histogram under `name` in a record's "hist" object. Checks every
/// invariant Histogram::from_parts asserts, so a corrupt record is a
/// JsonParseError (which the reader tags with its line), not a contract
/// violation.
Histogram parse_histogram(const JsonValue& hist, std::string_view name) {
  const JsonValue* v = hist.find(name);
  if (v == nullptr || v->kind == JsonValue::Kind::Null) return Histogram{};
  const std::string where = "histogram " + std::string{name};
  const auto invalid = [&](const std::string& what) { return JsonParseError(where + ": " + what); };
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
                      where);
  return Histogram::from_parts(v->i64_or("lo", 0), width, std::move(counts), count,
                               v->i64_or("sum", 0), min, max);
}

/// Reads the field `name` of `object` into `out`, which an absent key
/// leaves at its default.
template <class T>
void read_value(const JsonValue& object, std::string_view name, T& out) {
  if constexpr (std::is_same_v<T, Histogram>) {
    out = parse_histogram(object, name);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = object.string_or(name, out);
  } else if constexpr (std::is_same_v<T, bool>) {
    out = object.bool_or(name, out);
  } else if constexpr (std::is_same_v<T, double>) {
    out = object.number_or(name, out);
  } else if constexpr (std::is_same_v<T, std::int64_t>) {
    out = object.i64_or(name, out);
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    out = object.u64_or(name, out);
  } else {
    static_assert(std::is_same_v<T, std::uint32_t>);
    const std::uint64_t wide = object.u64_or(name, out);
    if (wide > std::numeric_limits<std::uint32_t>::max()) {
      throw JsonParseError(std::string{name} + " " + std::to_string(wide) +
                           " does not fit 32 bits");
    }
    out = static_cast<std::uint32_t>(wide);
  }
}

RunMetricsRecord parse_record(const JsonValue& doc) {
  using namespace record_fields;
  RunMetricsRecord record;
  for (const Object& object : kObjects) {
    const bool top = object.key.empty();
    const JsonValue* json = top ? &doc : doc.find(object.key, JsonValue::Kind::Object);
    if (json == nullptr) {
      if (object.required) {
        throw JsonParseError("record is missing its " + std::string{object.key} + " object");
      }
      continue;
    }
    std::vector<std::string_view> known;
    if (top) {
      known.push_back("schema");
      for (const Object& nested : kObjects) {
        if (!nested.key.empty()) known.push_back(nested.key);
      }
    }
    for (const Field& f : kFields) {
      if (&object_of(f) != &object) continue;
      known.push_back(f.name);
      record_fields::visit(f, [&](auto& out) { read_value(*json, f.name, out); }, record);
    }
    reject_unknown_keys(*json, known, top ? "record" : object.key);
  }
  return record;
}

}  // namespace

void write_run_metrics_jsonl(std::ostream& os, const RunMetricsRecord& record) {
  using namespace record_fields;
  os << "{\"schema\":" << json_quote(kSchema);
  const Object* open = &kObjects[0];
  for (const Field& f : kFields) {
    const Object& object = object_of(f);
    std::string_view separator = ",";
    if (&object != open) {
      if (!open->key.empty()) os << '}';
      if (!object.key.empty()) {
        os << ",\"" << object.key << "\":{";
        separator = "";
      }
      open = &object;
    }
    os << separator << '"' << f.name << "\":";
    record_fields::visit(
        f,
        [&os](const auto& value) {
          if constexpr (std::is_same_v<std::remove_cvref_t<decltype(value)>, Histogram>) {
            write_histogram(os, value);
          } else {
            record_fields::write_scalar(os, value);
          }
        },
        record);
  }
  if (!open->key.empty()) os << '}';
  os << "}\n";
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
      out.push_back(parse_record(doc));
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
