// Tests for the causal span tracer (obs/trace.h), its host-span track fed by
// obs::HostTimer, and the calibrated host clock (common/time.h) — including the
// bitwise-invisibility contract: arming the tracer, or any other
// sim::SimObserver, must not change any simulation result bit, for any
// thread count.
#include "rstp/obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rstp/common/time.h"
#include "rstp/core/effort.h"
#include "rstp/est/estimator.h"
#include "rstp/ioa/trace_io.h"
#include "rstp/obs/host_timer.h"
#include "rstp/obs/json.h"
#include "rstp/obs/metrics.h"
#include "rstp/obs/sinks.h"
#include "rstp/sim/search_support.h"
#include "rstp/sim/session.h"

namespace rstp {
namespace {

using obs::trace::ModelRecorder;
using obs::trace::Tracer;
using obs::trace::TraceConfig;

protocols::ProtocolConfig fixed_config() {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.k = 4;
  cfg.input = core::make_random_input(32, 7);
  return cfg;
}

/// Runs fixed_config() in the worst-case environment with `tracer`'s model
/// recorder armed (when set) and the session timed by `timer` (when set).
core::ProtocolRun run_with_tracer(Tracer* tracer, obs::HostTimer* timer = nullptr) {
  std::optional<ModelRecorder> recorder;
  if (tracer != nullptr) recorder.emplace(*tracer);
  const protocols::ProtocolConfig cfg = fixed_config();
  sim::SimConfig sim_config;
  sim_config.params = cfg.params;
  sim_config.observer = recorder.has_value() ? &*recorder : nullptr;
  sim_config.host_timer = timer;
  core::ProtocolRun run;
  run.result = core::make_session(protocols::ProtocolKind::Beta, cfg,
                                  core::Environment::worst_case(), std::move(sim_config))
                   ->run();
  run.output_correct = run.result.output == cfg.input;
  return run;
}

/// Runs fixed_config() in the worst-case environment on a hand-wired session
/// whose observer is `arm(instance)`: the coverage observer needs the pair's
/// automata before the session takes ownership of them.
sim::RunResult run_observed(
    const std::function<sim::SimObserver*(const protocols::ProtocolInstance&)>& arm) {
  const protocols::ProtocolConfig cfg = fixed_config();
  protocols::ProtocolInstance instance =
      protocols::make_protocol(protocols::ProtocolKind::Beta, cfg);
  sim::SimConfig sim_config;
  sim_config.params = cfg.params;
  sim_config.observer = arm(instance);
  const core::Environment env = core::Environment::worst_case();
  sim::Session session{std::move(instance),
                       core::make_scheduler(env.transmitter_sched, cfg.params, 0),
                       core::make_scheduler(env.receiver_sched, cfg.params, 0),
                       core::make_delivery_policy(env.delay, cfg.params, 0),
                       std::move(sim_config)};
  return session.run();
}

/// Field-by-field equality of two runs of the same execution.
void expect_same_run(const sim::RunResult& on, const sim::RunResult& off) {
  EXPECT_EQ(on.output, off.output);
  EXPECT_EQ(on.event_count, off.event_count);
  EXPECT_EQ(on.end_time, off.end_time);
  EXPECT_EQ(on.last_transmitter_send, off.last_transmitter_send);
  EXPECT_EQ(on.transmitter_steps, off.transmitter_steps);
  EXPECT_EQ(on.receiver_steps, off.receiver_steps);
  EXPECT_EQ(on.transmitter_sends, off.transmitter_sends);
  EXPECT_EQ(on.receiver_sends, off.receiver_sends);
  EXPECT_EQ(on.dropped_packets, off.dropped_packets);
  EXPECT_EQ(on.quiescent, off.quiescent);
  EXPECT_EQ(on.faults, off.faults);
  EXPECT_EQ(on.metrics, off.metrics);
  // The timed traces agree event for event (serialized comparison).
  std::ostringstream trace_on;
  std::ostringstream trace_off;
  ioa::write_trace(trace_on, on.trace);
  ioa::write_trace(trace_off, off.trace);
  EXPECT_EQ(trace_on.str(), trace_off.str());
}

std::string export_json(const Tracer& tracer) {
  std::ostringstream os;
  tracer.write_chrome_json(os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Chrome-trace export

TEST(SpanTrace, ExportIsValidChromeJsonWithAllActorsAndFlows) {
  Tracer tracer;
  const core::ProtocolRun run = run_with_tracer(&tracer);
  ASSERT_TRUE(run.output_correct);

  const obs::JsonValue doc = obs::parse_json(export_json(tracer));
  ASSERT_TRUE(doc.is_object());
  const obs::JsonValue* other = doc.find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->string_or("schema", ""), "rstp-trace-v1");
  EXPECT_EQ(other->u64_or("dropped", 1), 0u);

  const obs::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::set<int> span_pids;
  std::set<std::uint64_t> flow_starts;
  std::set<std::uint64_t> flow_finishes;
  for (const obs::JsonValue& e : events->items) {
    const std::string ph = e.string_or("ph", "");
    if (ph == "X" && e.string_or("cat", "") == "model") {
      span_pids.insert(static_cast<int>(e.u64_or("pid", 0)));
    } else if (ph == "s") {
      flow_starts.insert(e.u64_or("id", ~0ull));
    } else if (ph == "f") {
      EXPECT_EQ(e.string_or("bp", ""), "e");
      flow_finishes.insert(e.u64_or("id", ~0ull));
    }
  }
  // Model spans on all three actors: transmitter (1), channel (2), receiver (3).
  EXPECT_TRUE(span_pids.count(1)) << export_json(tracer);
  EXPECT_TRUE(span_pids.count(2));
  EXPECT_TRUE(span_pids.count(3));
  // At least one complete send → delivery lineage pair.
  std::size_t matched = 0;
  for (const std::uint64_t id : flow_starts) matched += flow_finishes.count(id);
  EXPECT_GE(matched, 1u);
}

TEST(SpanTrace, GoldenFixedSeedPrefixAndByteStableReExport) {
  Tracer first;
  (void)run_with_tracer(&first);
  const std::string a = export_json(first);
  // Re-exporting the same recording is byte-identical, and so is the export
  // of an independent second run of the same seed: the model timeline is a
  // pure function of the execution.
  EXPECT_EQ(a, export_json(first));
  Tracer second;
  (void)run_with_tracer(&second);
  EXPECT_EQ(a, export_json(second));

  // Golden structural prefix for this seed: with d=6 and the worst-case
  // schedulers stepping every c2=2, beta sends at t=0,2,4 before the first
  // delivery lands at t=6 — pinned as (ph, name) pairs in file order.
  const obs::JsonValue doc = obs::parse_json(a);
  std::vector<std::pair<std::string, std::string>> prefix;
  for (const obs::JsonValue& e : doc.find("traceEvents")->items) {
    const std::string cat = e.string_or("cat", "");
    if (cat != "model" && cat != "flow") continue;
    prefix.emplace_back(e.string_or("ph", ""), e.string_or("name", ""));
    if (prefix.size() == 8) break;
  }
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"X", "send"}, {"s", "pkt_data"}, {"X", "send"}, {"s", "pkt_data"},
      {"X", "send"}, {"s", "pkt_data"}, {"X", "recv"}, {"f", "pkt_data"},
  };
  EXPECT_EQ(prefix, golden);

  // Every span name comes from the fixed vocabulary (no dynamic strings).
  const std::set<std::string> vocabulary = {
      "send",       "recv",       "write",    "idle",       "block_encode",
      "block_decode", "ack_round", "pkt_data", "pkt_ack",    "fault_drop",
      "fault_duplicate", "fault_late", "fault_corrupt"};
  for (const obs::JsonValue& e : doc.find("traceEvents")->items) {
    const std::string cat = e.string_or("cat", "");
    if (cat != "model" && cat != "flow") continue;
    EXPECT_TRUE(vocabulary.count(e.string_or("name", "?")))
        << "unexpected span name " << e.string_or("name", "?");
  }
}

TEST(SpanTrace, CapacityOverflowCountsDropsAndExportStaysValid) {
  Tracer tracer{TraceConfig{.capacity = 8}};
  (void)run_with_tracer(&tracer);
  EXPECT_GT(tracer.dropped(), 0u);
  const obs::JsonValue doc = obs::parse_json(export_json(tracer));
  EXPECT_EQ(doc.find("otherData")->u64_or("dropped", 0), tracer.dropped());
}

TEST(SpanTrace, SummaryCountsSpansFlowsAndDelayPercentiles) {
  Tracer tracer;
  (void)run_with_tracer(&tracer);
  const obs::trace::Summary s = obs::trace::summarize(tracer);
  EXPECT_GT(s.model_spans, 0u);
  EXPECT_GT(s.flow_events, 0u);
  EXPECT_GT(s.data_delivered, 0u);
  EXPECT_EQ(s.dropped, 0u);
  // Worst-case channel holds every packet exactly d = 6 ticks.
  EXPECT_EQ(s.delay_p50, 6);
  EXPECT_EQ(s.delay_p99, 6);
}

// ---------------------------------------------------------------------------
// Bitwise invisibility

TEST(SpanTrace, TracingDoesNotChangeAnyResultBit) {
  const core::ProtocolRun off = run_with_tracer(nullptr);
  Tracer tracer;
  const core::ProtocolRun on = run_with_tracer(&tracer);

  EXPECT_EQ(on.output_correct, off.output_correct);
  expect_same_run(on.result, off.result);
}

TEST(SpanTrace, NoObserverChangesAnyResultBit) {
  const sim::RunResult off =
      run_observed([](const protocols::ProtocolInstance&) { return nullptr; });
  // The hand-wired session is the one core::make_session builds.
  expect_same_run(off, run_with_tracer(nullptr).result);

  std::optional<sim::CoverageObserver> coverage;
  expect_same_run(run_observed([&](const protocols::ProtocolInstance& instance) {
                    coverage.emplace(*instance.transmitter, *instance.receiver);
                    return &*coverage;
                  }),
                  off);
  EXPECT_FALSE(coverage->sorted_fingerprints().empty());

  // An estimator armed without a planner: observed, never consulted.
  est::TimingEstimator estimator{est::EstimatorConfig{}};
  expect_same_run(
      run_observed([&](const protocols::ProtocolInstance&) { return &estimator; }), off);
  EXPECT_EQ(estimator.gap_samples(), off.metrics.transmitter_gap.count() +
                                         off.metrics.receiver_gap.count());
  EXPECT_EQ(estimator.delay_samples(),
            off.metrics.data_delay.count() + off.metrics.ack_delay.count());

  // The tee feeds both of its observers the same stream.
  Tracer tracer;
  ModelRecorder recorder{tracer};
  std::optional<sim::CoverageObserver> teed_coverage;
  std::optional<sim::ObserverTee> tee;
  expect_same_run(run_observed([&](const protocols::ProtocolInstance& instance) {
                    teed_coverage.emplace(*instance.transmitter, *instance.receiver);
                    tee.emplace(&*teed_coverage, &recorder);
                    return tee->armed();
                  }),
                  off);
  EXPECT_EQ(teed_coverage->sorted_fingerprints(), coverage->sorted_fingerprints());
  Tracer solo;
  (void)run_with_tracer(&solo);
  EXPECT_EQ(export_json(tracer), export_json(solo));
}

// ---------------------------------------------------------------------------
// Host-time profiling spans

TEST(SpanTrace, HostSpansLandUnderPid100FromAHostTimer) {
  Tracer tracer;
  std::uint64_t timed_calls = 0;
  {
    obs::HostTimer timer{&tracer};
    (void)run_with_tracer(&tracer, &timer);
    for (const obs::LayerTotal& layer : timer.layers()) timed_calls += layer.calls;
  }
  // One span per timed call; the calibration's spans never reach the tracer.
  EXPECT_EQ(tracer.host_buffer().records().size(), timed_calls);
  EXPECT_GT(timed_calls, 0u);
  const obs::JsonValue doc = obs::parse_json(export_json(tracer));
  std::size_t host_spans = 0;
  std::set<std::string> names;
  for (const obs::JsonValue& e : doc.find("traceEvents")->items) {
    if (e.string_or("cat", "") != "host") continue;
    ++host_spans;
    EXPECT_EQ(e.u64_or("pid", 0), 100u);
    // Host timestamps are rebased to the first span: small µs offsets.
    EXPECT_GE(e.number_or("ts", -1), 0.0);
    names.insert(e.string_or("name", ""));
  }
  EXPECT_EQ(host_spans, timed_calls);
  EXPECT_EQ(names, (std::set<std::string>{"channel.policy_choose", "protocols.deliver",
                                          "protocols.step", "sim.scheduler.next_gap"}));
}

// ---------------------------------------------------------------------------
// Calibrated host clock

TEST(HostClock, EnvVarForcesSteadyFallbackAndTimingStillWorks) {
  ASSERT_EQ(::setenv("RSTP_NO_TSC", "1", 1), 0);
  detail::recalibrate_host_clock_for_testing();
  EXPECT_EQ(host_clock_source(), HostClockSource::Steady);
  EXPECT_STREQ(to_string(host_clock_source()), "steady");

  // The fallback clock still drives the host timer end to end.
  {
    obs::HostTimer timer;
    EXPECT_GT(timer.cost().pair_ns, 0.0);
    (void)run_with_tracer(nullptr, &timer);
    std::uint64_t raw_ns = 0;
    for (const obs::LayerTotal& layer : timer.layers()) raw_ns += layer.raw_ns;
    EXPECT_GT(raw_ns, 0u);
  }

  ASSERT_EQ(::unsetenv("RSTP_NO_TSC"), 0);
  detail::recalibrate_host_clock_for_testing();  // restore the machine default
}

TEST(HostClock, HostNowIsMonotonicInBothModes) {
  for (const bool force_steady : {false, true}) {
    if (force_steady) {
      detail::set_host_clock_source_for_testing(HostClockSource::Steady);
    } else {
      calibrate_host_clock();
    }
    std::uint64_t prev = host_now_ns();
    for (int i = 0; i < 10'000; ++i) {
      const std::uint64_t now = host_now_ns();
      ASSERT_GE(now, prev);
      prev = now;
    }
  }
  calibrate_host_clock();
}

TEST(HostClock, TscInstrumentationFloorIsBelowSteadyClock) {
  calibrate_host_clock();
  if (host_clock_source() != HostClockSource::Tsc) {
    GTEST_SKIP() << "no invariant TSC on this machine (or RSTP_NO_TSC set)";
  }
  const double tsc_pair = obs::HostTimer{}.cost().pair_ns;
  detail::set_host_clock_source_for_testing(HostClockSource::Steady);
  const double steady_pair = obs::HostTimer{}.cost().pair_ns;
  detail::set_host_clock_source_for_testing(HostClockSource::Tsc);
  EXPECT_LT(tsc_pair, steady_pair) << "tsc " << tsc_pair << " ns vs steady " << steady_pair
                                   << " ns";
}

// ---------------------------------------------------------------------------
// Shared nearest-rank percentile kernel

TEST(NearestRank, SharedKernelMatchesHistogram) {
  obs::Histogram hist(0, 9);  // width-1 buckets: exact percentiles
  const std::vector<std::int64_t> values = {0, 1, 1, 2, 5, 5, 5, 9};
  std::vector<std::uint64_t> buckets(10, 0);
  for (const std::int64_t v : values) {
    hist.record(v);
    ++buckets[static_cast<std::size_t>(v)];
  }
  for (const double p : {0.0, 25.0, 50.0, 90.0, 99.0, 100.0}) {
    const std::size_t index =
        obs::nearest_rank_bucket(buckets.data(), buckets.size(), values.size(), p);
    EXPECT_EQ(static_cast<std::int64_t>(index), hist.percentile(p)) << "p=" << p;
  }
  EXPECT_EQ(obs::nearest_rank_bucket(buckets.data(), buckets.size(), 0, 50.0), 0u);
}

// ---------------------------------------------------------------------------
// JSON control-character round trips (pinning the escaping contract)

TEST(JsonEscaping, ControlCharactersRoundTripThroughTheBundledParser) {
  for (int c = 0x00; c < 0x20; ++c) {
    std::string raw = "a";
    raw.push_back(static_cast<char>(c));
    raw += "b";
    const std::string quoted = obs::json_quote(raw);
    // No raw control byte may survive into the document.
    for (const char q : quoted) {
      EXPECT_GE(static_cast<unsigned char>(q), 0x20u) << "c=" << c;
    }
    const obs::JsonValue parsed = obs::parse_json(quoted);
    EXPECT_EQ(parsed.text, raw) << "c=" << c;
  }
}

TEST(JsonEscaping, RunMetricsJsonlRoundTripsControlCharsInStrings) {
  obs::RunMetricsRecord record;
  record.protocol = "beta\x01\n\ttab";
  record.c1 = 1;
  record.c2 = 2;
  record.d = 6;
  record.k = 4;
  record.metrics.data_delay = obs::Histogram(0, 6);
  record.metrics.data_delay.record(3);
  record.metrics.ack_delay = obs::Histogram(0, 6);
  record.metrics.transmitter_gap = obs::Histogram(0, 2);
  record.metrics.receiver_gap = obs::Histogram(0, 2);

  std::stringstream stream;
  obs::write_run_metrics_jsonl(stream, record);
  const std::string line = stream.str();
  // Exactly one '\n': the record terminator. The embedded one is escaped.
  EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
  const std::vector<obs::RunMetricsRecord> back = obs::read_run_metrics_jsonl(stream);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0], record);
}

}  // namespace
}  // namespace rstp
