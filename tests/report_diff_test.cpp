// Unit tests for the metrics diff/regression-gate layer (rstp/obs/diff.h):
// the cell join, exact delta arithmetic (including u64-overflow-adjacent
// counters and zero-old percentages), the --fail-on threshold grammar, and
// the exact JSON form of a diff report, read back through obs::parse_json.
#include "rstp/obs/diff.h"

#include <gtest/gtest.h>

#include "rstp/est/runner.h"
#include "rstp/obs/json.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace rstp::obs {
namespace {

/// A minimal but fully-formed record: configured histograms (the JSONL
/// schema requires them) and a recognizable identity.
RunMetricsRecord make_record(const std::string& protocol, std::uint64_t seed,
                             std::uint64_t events) {
  RunMetricsRecord r;
  r.protocol = protocol;
  r.c1 = 1;
  r.c2 = 2;
  r.d = 6;
  r.k = 4;
  r.input_bits = 64;
  r.seed = seed;
  r.effort = 2.5;
  r.end_time = 100;
  r.correct = true;
  r.quiescent = true;
  r.metrics.counters.events = events;
  r.metrics.data_delay = Histogram(0, 6);
  r.metrics.ack_delay = Histogram(0, 6);
  r.metrics.transmitter_gap = Histogram(0, 2);
  r.metrics.receiver_gap = Histogram(0, 2);
  r.metrics.data_delay.record(3);
  r.metrics.data_delay.record(5);
  return r;
}

TEST(DiffJoin, IdenticalSeriesProduceNoChanges) {
  const std::vector<RunMetricsRecord> runs = {make_record("alpha", 1, 10),
                                              make_record("beta", 2, 20)};
  const DiffReport report = diff_metrics(runs, runs);
  EXPECT_EQ(report.old_records, 2u);
  EXPECT_EQ(report.new_records, 2u);
  EXPECT_EQ(report.matched, 2u);
  EXPECT_TRUE(report.cells.empty());
  EXPECT_TRUE(report.missing.empty());
  EXPECT_TRUE(report.extra.empty());
  for (const QuantityDelta& agg : report.aggregates) {
    EXPECT_FALSE(agg.changed()) << agg.name;
  }
}

TEST(DiffJoin, MissingAndExtraCellsAreReportedByKey) {
  const std::vector<RunMetricsRecord> old_runs = {make_record("alpha", 1, 10),
                                                  make_record("beta", 2, 20)};
  const std::vector<RunMetricsRecord> new_runs = {make_record("alpha", 1, 10),
                                                  make_record("gamma", 3, 30)};
  const DiffReport report = diff_metrics(old_runs, new_runs);
  EXPECT_EQ(report.matched, 1u);
  ASSERT_EQ(report.missing.size(), 1u);
  EXPECT_EQ(report.missing[0].protocol, "beta");
  ASSERT_EQ(report.extra.size(), 1u);
  EXPECT_EQ(report.extra[0].protocol, "gamma");
  const QuantityDelta* missing = report.find_aggregate("cells_missing");
  ASSERT_NE(missing, nullptr);
  EXPECT_EQ(missing->new_u, 1u);
  const QuantityDelta* extra = report.find_aggregate("cells_extra");
  ASSERT_NE(extra, nullptr);
  EXPECT_EQ(extra->new_u, 1u);
}

TEST(DiffJoin, DuplicateIdentitiesPairByOccurrenceIndex) {
  // Two records with the same identity join 1:1 in file order; dropping one
  // repetition shows up as a missing cell (rep 1), not a changed cell.
  const RunMetricsRecord a = make_record("alpha", 7, 10);
  const RunMetricsRecord b = make_record("alpha", 7, 99);
  const DiffReport same = diff_metrics({a, b}, {a, b});
  EXPECT_EQ(same.matched, 2u);
  EXPECT_TRUE(same.cells.empty());

  const DiffReport dropped = diff_metrics({a, b}, {a});
  EXPECT_EQ(dropped.matched, 1u);
  ASSERT_EQ(dropped.missing.size(), 1u);
  EXPECT_EQ(dropped.missing[0].rep, 1u);
  EXPECT_TRUE(dropped.cells.empty());
}

TEST(DiffDelta, ChangedCellListsOnlyChangedQuantities) {
  const RunMetricsRecord before = make_record("alpha", 1, 10);
  RunMetricsRecord after = before;
  after.metrics.counters.events = 15;
  const DiffReport report = diff_metrics({before}, {after});
  ASSERT_EQ(report.cells.size(), 1u);
  ASSERT_EQ(report.cells[0].deltas.size(), 1u);
  const QuantityDelta& delta = report.cells[0].deltas[0];
  EXPECT_EQ(delta.name, "events");
  EXPECT_TRUE(delta.integral);
  EXPECT_EQ(delta.old_u, 10u);
  EXPECT_EQ(delta.new_u, 15u);
  EXPECT_DOUBLE_EQ(delta.delta(), 5.0);
  EXPECT_DOUBLE_EQ(delta.pct(), 50.0);
  const QuantityDelta* changed = report.find_aggregate("cells_changed");
  ASSERT_NE(changed, nullptr);
  EXPECT_EQ(changed->new_u, 1u);
}

TEST(DiffDelta, OverflowAdjacentCountersDiffExactly) {
  // Counters near 2^64 must never round-trip through a double: the diff is
  // computed in u64 arithmetic as sign + magnitude.
  constexpr std::uint64_t kHuge = std::numeric_limits<std::uint64_t>::max();
  const RunMetricsRecord before = make_record("alpha", 1, kHuge - 1);
  const RunMetricsRecord after = make_record("alpha", 1, kHuge);
  const DiffReport up = diff_metrics({before}, {after});
  ASSERT_EQ(up.cells.size(), 1u);
  const QuantityDelta& grew = up.cells[0].deltas[0];
  EXPECT_EQ(grew.old_u, kHuge - 1);
  EXPECT_EQ(grew.new_u, kHuge);
  EXPECT_DOUBLE_EQ(grew.delta(), 1.0);  // exact despite 2^64-scale endpoints

  const DiffReport down = diff_metrics({after}, {before});
  ASSERT_EQ(down.cells.size(), 1u);
  EXPECT_DOUBLE_EQ(down.cells[0].deltas[0].delta(), -1.0);
}

TEST(DiffDelta, ZeroOldValueYieldsInfinitePercent) {
  QuantityDelta delta;
  delta.name = "events";
  delta.integral = true;
  delta.old_u = 0;
  delta.new_u = 5;
  delta.old_v = 0;
  delta.new_v = 5;
  EXPECT_TRUE(delta.changed());
  EXPECT_EQ(delta.pct(), HUGE_VAL);
  delta.new_u = 0;
  delta.new_v = 0;
  EXPECT_FALSE(delta.changed());
  EXPECT_EQ(delta.pct(), 0.0);
}

TEST(Thresholds, ParseAcceptsTheDocumentedGrammar) {
  const std::vector<Threshold> parsed =
      parse_thresholds("effort_mean>1%, delay_p99 >= 5 , events>10");
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].quantity, "effort_mean");
  EXPECT_FALSE(parsed[0].inclusive);
  EXPECT_DOUBLE_EQ(parsed[0].limit, 1.0);
  EXPECT_TRUE(parsed[0].relative);
  EXPECT_EQ(parsed[1].quantity, "delay_p99");
  EXPECT_TRUE(parsed[1].inclusive);
  EXPECT_FALSE(parsed[1].relative);
  EXPECT_EQ(parsed[2].quantity, "events");  // bare counter → events_total
}

TEST(Thresholds, ParseErrorsNameTheOffendingToken) {
  const auto token_of = [](const std::string& spec) {
    try {
      (void)parse_thresholds(spec);
    } catch (const ThresholdParseError& error) {
      return error.token();
    }
    return std::string{"<no error>"};
  };
  EXPECT_EQ(token_of("effort_mean"), "effort_mean");        // no comparator
  EXPECT_EQ(token_of("effort_mean>abc"), "effort_mean>abc");  // bad number
  EXPECT_EQ(token_of("effort_mean>-1"), "effort_mean>-1");    // negative limit
  EXPECT_EQ(token_of("a>1,,b>2"), "");                        // empty clause
}

TEST(Thresholds, RejectsNonFiniteLimits) {
  // from_chars parses "nan"/"inf" lexemes; accepting them would make a gate
  // that silently passes everything (NaN compares false against all values).
  const auto token_of = [](const std::string& spec) {
    try {
      (void)parse_thresholds(spec);
    } catch (const ThresholdParseError& error) {
      return error.token();
    }
    return std::string{"<no error>"};
  };
  EXPECT_EQ(token_of("effort_mean>nan"), "effort_mean>nan");
  EXPECT_EQ(token_of("effort_mean>inf"), "effort_mean>inf");
  EXPECT_EQ(token_of("effort_mean>=nan"), "effort_mean>=nan");
  EXPECT_EQ(token_of("events>inf%"), "events>inf%");
  EXPECT_EQ(token_of("events>nan(ind)"), "events>nan(ind)");
}

TEST(Thresholds, NanObservedValueTripsTheGate) {
  // A NaN measurement compares false against any finite limit; the gate must
  // report it as a violation instead of certifying the run.
  DiffReport report;
  QuantityDelta poisoned;
  poisoned.name = "effort_mean";
  poisoned.integral = false;
  poisoned.old_v = std::numeric_limits<double>::quiet_NaN();
  poisoned.new_v = 5.0;
  report.aggregates.push_back(poisoned);
  for (const char* spec : {"effort_mean>1000", "effort_mean>0.1%"}) {
    const std::vector<ThresholdViolation> violations =
        evaluate_thresholds(report, parse_thresholds(spec));
    ASSERT_EQ(violations.size(), 1u) << spec;
    EXPECT_TRUE(std::isnan(violations[0].observed)) << spec;
  }
}

TEST(Thresholds, ZeroBaselineRelativeGateTripsLoudly) {
  // pct() maps a zero baseline to +HUGE_VAL by convention, so a relative
  // gate on a quantity that appears from nothing always trips.
  DiffReport report;
  QuantityDelta appeared;
  appeared.name = "events_total";
  appeared.integral = true;
  appeared.old_u = 0;
  appeared.new_u = 7;
  appeared.old_v = 0;
  appeared.new_v = 7;
  report.aggregates.push_back(appeared);
  const std::vector<ThresholdViolation> violations =
      evaluate_thresholds(report, parse_thresholds("events>1000000%"));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].observed, HUGE_VAL);
}

TEST(Thresholds, UnknownQuantityThrowsAtEvaluation) {
  const std::vector<RunMetricsRecord> runs = {make_record("alpha", 1, 10)};
  const DiffReport report = diff_metrics(runs, runs);
  const std::vector<Threshold> thresholds = parse_thresholds("no_such_quantity>1");
  EXPECT_THROW((void)evaluate_thresholds(report, thresholds), ThresholdParseError);
}

TEST(Thresholds, TripOnIncreasesOnlyAndRespectRelativeLimits) {
  const RunMetricsRecord before = make_record("alpha", 1, 100);
  RunMetricsRecord regressed = before;
  regressed.metrics.counters.events = 103;  // +3%
  const DiffReport worse = diff_metrics({before}, {regressed});
  EXPECT_EQ(evaluate_thresholds(worse, parse_thresholds("events>1%")).size(), 1u);
  EXPECT_TRUE(evaluate_thresholds(worse, parse_thresholds("events>5%")).empty());
  EXPECT_EQ(evaluate_thresholds(worse, parse_thresholds("events>2")).size(), 1u);
  EXPECT_TRUE(evaluate_thresholds(worse, parse_thresholds("events>3")).empty());
  EXPECT_EQ(evaluate_thresholds(worse, parse_thresholds("events>=3")).size(), 1u);

  // The same shift downward is an improvement and never trips.
  const DiffReport better = diff_metrics({regressed}, {before});
  EXPECT_TRUE(evaluate_thresholds(better, parse_thresholds("events>1%")).empty());
}

TEST(DiffJson, RoundTripsExactlyThroughTheBundledParser) {
  const std::vector<RunMetricsRecord> old_runs = {
      make_record("alpha", 1, std::numeric_limits<std::uint64_t>::max() - 1),
      make_record("beta", 2, 20)};
  std::vector<RunMetricsRecord> new_runs = {
      make_record("alpha", 1, std::numeric_limits<std::uint64_t>::max()),
      make_record("gamma", 3, 30)};
  new_runs[0].effort = 3.0000000000000004;  // needs shortest-round-trip digits
  const DiffReport report = diff_metrics(old_runs, new_runs);
  ASSERT_EQ(report.cells.size(), 1u);

  std::ostringstream os;
  write_diff_json(os, report);
  const JsonValue doc = parse_json(os.str());
  EXPECT_EQ(doc.string_or("schema", ""), "rstp-metrics-diff-v1");
  EXPECT_EQ(doc.u64_or("matched", 0), report.matched);
  ASSERT_NE(doc.find("missing"), nullptr);
  ASSERT_NE(doc.find("extra"), nullptr);
  EXPECT_EQ(doc.find("missing")->items.size(), report.missing.size());
  EXPECT_EQ(doc.find("extra")->items.size(), report.extra.size());

  // Every delta the document carries reads back to the report's exact value:
  // integral quantities through their u64 lexeme, doubles bit for bit.
  const auto expect_deltas = [](const JsonValue& array, const std::vector<QuantityDelta>& want) {
    ASSERT_EQ(array.items.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const JsonValue& item = array.items[i];
      const QuantityDelta& d = want[i];
      SCOPED_TRACE(d.name);
      EXPECT_EQ(item.string_or("name", ""), d.name);
      EXPECT_EQ(item.bool_or("int", !d.integral), d.integral);
      ASSERT_NE(item.find("old"), nullptr);
      ASSERT_NE(item.find("new"), nullptr);
      if (d.integral) {
        EXPECT_EQ(item.find("old")->to_u64(), d.old_u);
        EXPECT_EQ(item.find("new")->to_u64(), d.new_u);
      } else {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(item.find("old")->to_double()),
                  std::bit_cast<std::uint64_t>(d.old_v));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(item.find("new")->to_double()),
                  std::bit_cast<std::uint64_t>(d.new_v));
      }
    }
  };
  const JsonValue* cells = doc.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items.size(), 1u);
  const JsonValue& cell = cells->items[0];
  ASSERT_NE(cell.find("key"), nullptr);
  EXPECT_EQ(cell.find("key")->string_or("protocol", ""), "alpha");
  ASSERT_NE(cell.find("deltas"), nullptr);
  expect_deltas(*cell.find("deltas"), report.cells[0].deltas);
  ASSERT_NE(doc.find("aggregates"), nullptr);
  expect_deltas(*doc.find("aggregates"), report.aggregates);

  // The lexemes themselves: 2^64-1 exactly, and the shortest round-trip
  // form of the double.
  const auto delta_named = [&cell](std::string_view name) -> const JsonValue* {
    for (const JsonValue& item : cell.find("deltas")->items) {
      if (item.string_or("name", "") == name) return &item;
    }
    return nullptr;
  };
  const JsonValue* events = delta_named("events");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->find("new")->text, "18446744073709551615");
  const JsonValue* effort = delta_named("effort");
  ASSERT_NE(effort, nullptr);
  EXPECT_EQ(effort->find("new")->text, "3.0000000000000004");
}

TEST(JsonStrings, SurrogatePairsDecodeToOneUtf8Sequence) {
  // \uD83D\uDE00 is U+1F600; the decoder must combine the pair instead of
  // emitting two raw 3-byte surrogates (which is invalid UTF-8).
  const JsonValue v = parse_json("\"\\uD83D\\uDE00\"");
  EXPECT_EQ(v.text, "\xF0\x9F\x98\x80");
}

TEST(JsonStrings, BmpBoundariesStillDecodeAsThreeBytes) {
  EXPECT_EQ(parse_json("\"\\uD7FF\"").text, "\xED\x9F\xBF");  // last before surrogates
  EXPECT_EQ(parse_json("\"\\uE000\"").text, "\xEE\x80\x80");  // first after surrogates
}

TEST(JsonStrings, LoneOrMismatchedSurrogatesAreRejected) {
  EXPECT_THROW((void)parse_json(R"("\uD800")"), JsonParseError);        // lone high
  EXPECT_THROW((void)parse_json(R"("\uDC00")"), JsonParseError);        // lone low
  EXPECT_THROW((void)parse_json(R"("\uD800A")"), JsonParseError);  // high + BMP
  EXPECT_THROW((void)parse_json(R"("\uD800\uD800")"), JsonParseError);  // high + high
  EXPECT_THROW((void)parse_json(R"("\uD800\u0041")"), JsonParseError);  // high + escaped BMP
  EXPECT_THROW((void)parse_json(R"("\uD800x")"), JsonParseError);       // high + raw char
}

TEST(JsonNesting, DocumentAtTheDepthLimitParses) {
  const std::string doc =
      std::string(kMaxJsonDepth - 1, '[') + "{\"k\":1}" + std::string(kMaxJsonDepth - 1, ']');
  const JsonValue v = parse_json(doc);
  const JsonValue* inner = &v;
  for (std::size_t i = 1; i < kMaxJsonDepth; ++i) {
    ASSERT_EQ(inner->items.size(), 1u);
    inner = &inner->items[0];
  }
  EXPECT_EQ(inner->u64_or("k", 0), 1u);
}

TEST(JsonNesting, OneLevelPastTheLimitThrowsWithItsByteOffset) {
  // The object opening level kMaxJsonDepth + 1 sits at byte kMaxJsonDepth.
  const std::string doc =
      std::string(kMaxJsonDepth, '[') + "{}" + std::string(kMaxJsonDepth, ']');
  try {
    (void)parse_json(doc);
    FAIL() << "expected JsonParseError";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string{e.what()}.find("at byte " + std::to_string(kMaxJsonDepth)),
              std::string::npos)
        << e.what();
  }
  // A hostile input far past the limit is rejected the same way instead of
  // exhausting the stack.
  EXPECT_THROW((void)parse_json(std::string(10'000'000, '[')), JsonParseError);
}

TEST(MegasessionFields, SessionsIsACellQuantityButEventsPerSecIsNot) {
  std::vector<RunMetricsRecord> old_runs = {make_record("alpha", 1, 100)};
  std::vector<RunMetricsRecord> new_runs = {make_record("alpha", 1, 100)};
  old_runs[0].sessions = 100;
  old_runs[0].events_per_sec = 5e6;
  new_runs[0].sessions = 200;
  new_runs[0].events_per_sec = 1e6;  // 80% slower — but wall clock, no cell delta

  const DiffReport report = diff_metrics(old_runs, new_runs);
  ASSERT_EQ(report.cells.size(), 1u);
  bool saw_sessions = false;
  for (const QuantityDelta& d : report.cells[0].deltas) {
    EXPECT_NE(d.name, "events_per_sec");  // machine-dependent: aggregate-only
    if (d.name == "sessions") {
      saw_sessions = true;
      EXPECT_EQ(d.old_u, 100u);
      EXPECT_EQ(d.new_u, 200u);
    }
  }
  EXPECT_TRUE(saw_sessions);

  const QuantityDelta* total = report.find_aggregate("sessions_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->old_u, 100u);
  EXPECT_EQ(total->new_u, 200u);
  const QuantityDelta* mean = report.find_aggregate("events_per_sec_mean");
  ASSERT_NE(mean, nullptr);
  EXPECT_DOUBLE_EQ(mean->old_v, 5e6);
  EXPECT_DOUBLE_EQ(mean->new_v, 1e6);
}

TEST(MegasessionFields, ThroughputDropGatesAsAPositiveDelta) {
  // The gate only trips on positive deltas, so the drop itself is the
  // aggregate's new value: old 5e6 -> new 1e6 is an 80% drop.
  std::vector<RunMetricsRecord> old_runs = {make_record("alpha", 1, 100)};
  std::vector<RunMetricsRecord> new_runs = {make_record("alpha", 1, 100)};
  old_runs[0].events_per_sec = 5e6;
  new_runs[0].events_per_sec = 1e6;
  const DiffReport report = diff_metrics(old_runs, new_runs);
  const QuantityDelta* drop = report.find_aggregate("events_per_sec_drop");
  ASSERT_NE(drop, nullptr);
  EXPECT_DOUBLE_EQ(drop->new_v, 80.0);

  EXPECT_TRUE(evaluate_thresholds(report, parse_thresholds("events_per_sec_drop>95")).empty());
  ASSERT_EQ(evaluate_thresholds(report, parse_thresholds("events_per_sec_drop>50")).size(), 1u);

  // A throughput *increase* reports drop 0 and can never trip.
  const DiffReport faster = diff_metrics(new_runs, old_runs);
  EXPECT_DOUBLE_EQ(faster.find_aggregate("events_per_sec_drop")->new_v, 0.0);
  EXPECT_TRUE(evaluate_thresholds(faster, parse_thresholds("events_per_sec_drop>=0")).empty());
}

TEST(MegasessionFields, DropGateIsInertWithoutBaselineThroughput) {
  // Pre-megasession baselines carry no events_per_sec at all; the drop
  // aggregate must stay 0 (unchanged) so existing golden gates — which
  // require EVERY aggregate unchanged on a rerun — still hold.
  const std::vector<RunMetricsRecord> old_runs = {make_record("alpha", 1, 100)};
  std::vector<RunMetricsRecord> new_runs = {make_record("alpha", 1, 100)};
  new_runs[0].events_per_sec = 1e6;  // new side alone cannot define a drop
  const DiffReport report = diff_metrics(old_runs, new_runs);
  const QuantityDelta* drop = report.find_aggregate("events_per_sec_drop");
  ASSERT_NE(drop, nullptr);
  EXPECT_FALSE(drop->changed());
  EXPECT_TRUE(evaluate_thresholds(report, parse_thresholds("events_per_sec_drop>0")).empty());
}

TEST(MegasessionFields, DegenerateEstPenaltySentinelTripsTheMaxGateFinite) {
  // The satellite guard: a degenerate oracle (never sent) reports the large
  // finite sentinel, which must trip est_penalty_max as a normal violation —
  // not leak inf/NaN through the gate arithmetic.
  std::vector<RunMetricsRecord> old_runs = {make_record("beta", 1, 100)};
  std::vector<RunMetricsRecord> new_runs = {make_record("beta", 1, 100)};
  new_runs[0].est_penalty = est::kDegenerateEstPenalty;
  const DiffReport report = diff_metrics(old_runs, new_runs);
  const auto violations = evaluate_thresholds(report, parse_thresholds("est_penalty_max>1.5"));
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_TRUE(std::isfinite(violations[0].observed));
  EXPECT_DOUBLE_EQ(violations[0].observed, est::kDegenerateEstPenalty);
}

}  // namespace
}  // namespace rstp::obs
