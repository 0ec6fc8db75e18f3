// The fields of an "rstp-run-metrics-v1" record, in the order the JSONL
// writer emits them. This table is the one place a field is named: the
// writer and reader (sinks.cpp) and the diff's cell key, cell quantities and
// aggregates (diff.cpp) all walk it. Adding a field takes the struct member
// and one row here.
#pragma once

#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "rstp/obs/json.h"
#include "rstp/obs/sinks.h"

namespace rstp::obs::record_fields {

/// A field's member. Its class names the JSON object the field sits in (see
/// Object) and its type the JSON kind: a string, true/false, an integer of
/// that width, a double, or a histogram object (which may also be null).
/// A RunIdentity member is part of the cell key the diff joins on.
using Member = std::variant<std::string RunIdentity::*, std::int64_t RunIdentity::*,
                            std::uint32_t RunIdentity::*, std::uint64_t RunIdentity::*,
                            double RunMetricsRecord::*, std::int64_t RunMetricsRecord::*,
                            std::uint64_t RunMetricsRecord::*, bool RunMetricsRecord::*,
                            std::int64_t EstimatorGauges::*, std::uint64_t EstimatorGauges::*,
                            std::uint64_t RunCounters::*, std::uint64_t ProtocolCounters::*,
                            Histogram RunMetrics::*>;

/// What the diff does with a field besides the cell key. Every field but a
/// wall-clock one is compared per cell; a histogram as its count, mean and
/// p50/p95/p99. The aggregates are taken over the matched cells.
enum class Diff : std::uint8_t {
  cell,         ///< compared per cell only
  total,        ///< and summed as "<name>_total"
  mean_max,     ///< and "<name>_mean", "<name>_max"
  percentiles,  ///< and "<alias>_p50", "_p95", "_p99": means of the cells' percentiles
  wall_mean,    ///< wall-clock, so never per cell: "<name>_mean" and "<name>_drop"
};

struct Field {
  std::string_view name;  ///< the JSON key
  Member member;
  Diff diff = Diff::cell;
  /// The report lists the aggregates by rank, then in table order.
  int rank = 0;
  /// A cell key's label in the report's headings, or the stem of an
  /// aggregate's name, where either is not `name`.
  std::string_view alias = {};
};

inline constexpr Field kFields[] = {
    {"protocol", &RunIdentity::protocol},
    {"c1", &RunIdentity::c1},
    {"c2", &RunIdentity::c2},
    {"d", &RunIdentity::d},
    {"k", &RunIdentity::k},
    {"input_bits", &RunIdentity::input_bits, Diff::cell, 0, "n"},
    {"seed", &RunIdentity::seed},
    {"effort", &RunMetricsRecord::effort, Diff::mean_max, 2},
    {"gap_ratio", &RunMetricsRecord::gap_ratio, Diff::mean_max, 2},
    {"est_penalty", &RunMetricsRecord::est_penalty, Diff::mean_max, 2},
    {"c1_hat", &EstimatorGauges::c1_hat},
    {"c2_hat", &EstimatorGauges::c2_hat},
    {"d_hat", &EstimatorGauges::d_hat},
    {"gap_samples", &EstimatorGauges::gap_samples},
    {"delay_samples", &EstimatorGauges::delay_samples},
    {"resizes", &EstimatorGauges::resizes},
    {"sessions", &RunMetricsRecord::sessions, Diff::total, 4},
    {"events_per_sec", &RunMetricsRecord::events_per_sec, Diff::wall_mean, 5},
    {"end_time", &RunMetricsRecord::end_time, Diff::total, 1},
    {"correct", &RunMetricsRecord::correct},
    {"quiescent", &RunMetricsRecord::quiescent},
    {"events", &RunCounters::events, Diff::total},
    {"data_sends", &RunCounters::data_sends, Diff::total},
    {"ack_sends", &RunCounters::ack_sends, Diff::total},
    {"data_recvs", &RunCounters::data_recvs, Diff::total},
    {"ack_recvs", &RunCounters::ack_recvs, Diff::total},
    {"dropped", &RunCounters::dropped, Diff::total},
    {"writes", &RunCounters::writes, Diff::total},
    {"transmitter_steps", &RunCounters::transmitter_steps, Diff::total},
    {"receiver_steps", &RunCounters::receiver_steps, Diff::total},
    {"transmitter_internal_steps", &RunCounters::transmitter_internal_steps, Diff::total},
    {"receiver_internal_steps", &RunCounters::receiver_internal_steps, Diff::total},
    {"blocks_encoded", &ProtocolCounters::blocks_encoded, Diff::total},
    {"blocks_decoded", &ProtocolCounters::blocks_decoded, Diff::total},
    {"acks_sent", &ProtocolCounters::acks_sent, Diff::total},
    {"acks_observed", &ProtocolCounters::acks_observed, Diff::total},
    {"retransmissions", &ProtocolCounters::retransmissions, Diff::total},
    {"data_delay", &RunMetrics::data_delay, Diff::percentiles, 3, "delay"},
    {"ack_delay", &RunMetrics::ack_delay},
    {"transmitter_gap", &RunMetrics::transmitter_gap},
    {"receiver_gap", &RunMetrics::receiver_gap},
};

/// A JSON object of the record: the top level (`key` empty) or one nested
/// under `key`. A nested object's fields take `diff_prefix` in the diff's
/// quantity names; a required object must be present in every record.
struct Object {
  std::string_view key;
  std::string_view diff_prefix;
  bool required;
};

inline constexpr Object kObjects[] = {
    {"", "", true}, {"est", "est_", false}, {"counters", "", true}, {"hist", "", false}};

// A member's struct decides the JSON object it is written in and where it
// lives in a record.
template <class T> const Object& object_of(T RunIdentity::*) { return kObjects[0]; }
template <class T> const Object& object_of(T RunMetricsRecord::*) { return kObjects[0]; }
template <class T> const Object& object_of(T EstimatorGauges::*) { return kObjects[1]; }
template <class T> const Object& object_of(T RunCounters::*) { return kObjects[2]; }
template <class T> const Object& object_of(T ProtocolCounters::*) { return kObjects[2]; }
template <class T> const Object& object_of(T RunMetrics::*) { return kObjects[3]; }

template <class R, class T> auto& owner(R& r, T RunIdentity::*) { return r; }
template <class R, class T> auto& owner(R& r, T RunMetricsRecord::*) { return r; }
template <class R, class T> auto& owner(R& r, T EstimatorGauges::*) { return r.est; }
template <class R, class T> auto& owner(R& r, T RunCounters::*) { return r.metrics.counters; }
template <class R, class T> auto& owner(R& r, T ProtocolCounters::*) {
  return r.metrics.counters.protocol;
}
template <class R, class T> auto& owner(R& r, T RunMetrics::*) { return r.metrics; }

/// A record holds every field; a CellKey or a RunIdentity only the key's.
template <class R, class M>
concept Holds = std::same_as<std::remove_const_t<R>, RunMetricsRecord> ||
                requires(R& r, M m) { r.*m; };

[[nodiscard]] inline const Object& object_of(const Field& f) {
  return std::visit([](auto m) -> const Object& { return object_of(m); }, f.member);
}

/// A RunIdentity member: one of the cell key's fields.
[[nodiscard]] inline bool is_key(const Field& f) {
  return std::visit([](auto m) { return Holds<const RunIdentity, decltype(m)>; }, f.member);
}

/// Calls `fn` with the field's value in each of `records` (const where the
/// record is); does nothing when they do not hold the field.
template <class Fn, class... R>
void visit(const Field& f, Fn&& fn, R&... records) {
  std::visit(
      [&](auto m) {
        if constexpr ((Holds<R, decltype(m)> && ...)) fn(owner(records, m).*m...);
      },
      f.member);
}

/// Writes a scalar value (not a histogram) as JSON.
template <class T>
void write_scalar(std::ostream& os, const T& value) {
  if constexpr (std::is_same_v<T, std::string>) {
    os << json_quote(value);
  } else if constexpr (std::is_same_v<T, bool>) {
    os << (value ? "true" : "false");
  } else if constexpr (std::is_same_v<T, double>) {
    os << json_number(value);
  } else {
    os << value;
  }
}

}  // namespace rstp::obs::record_fields
