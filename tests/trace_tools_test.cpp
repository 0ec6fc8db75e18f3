// Tests for trace serialization (ioa/trace_io) and statistics
// (core/trace_stats).
#include <gtest/gtest.h>

#include <sstream>

#include "rstp/common/check.h"
#include "rstp/core/effort.h"
#include "rstp/core/trace_stats.h"
#include "rstp/core/verify.h"
#include "rstp/ioa/trace_io.h"

namespace rstp {
namespace {

using core::Environment;
using ioa::Action;
using ioa::Actor;
using ioa::Packet;
using ioa::TimedTrace;
using protocols::ProtocolKind;

core::ProtocolRun sample_run(ProtocolKind kind = ProtocolKind::Gamma) {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.k = 4;
  cfg.input = core::make_random_input(24, 7);
  return core::run_protocol(kind, cfg, Environment::randomized(11));
}

TEST(TraceIo, RoundTripsARealExecution) {
  const core::ProtocolRun run = sample_run();
  ASSERT_TRUE(run.output_correct);
  const std::string text = ioa::trace_to_string(run.result.trace);
  const TimedTrace parsed = ioa::parse_trace_string(text);
  EXPECT_EQ(parsed.events(), run.result.trace.events());
}

TEST(TraceIo, ParsedTraceStillVerifies) {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.k = 4;
  cfg.input = core::make_random_input(24, 7);
  const core::ProtocolRun run = core::run_protocol(ProtocolKind::Gamma, cfg,
                                                   Environment::randomized(11));
  const TimedTrace parsed = ioa::parse_trace_string(ioa::trace_to_string(run.result.trace));
  const core::VerifyResult verdict = core::verify_trace(parsed, cfg.params, cfg.input);
  EXPECT_TRUE(verdict.ok()) << verdict;
}

TEST(TraceIo, FormatIsHumanReadable) {
  TimedTrace trace;
  trace.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(3)), 0});
  trace.append({at_tick(2), Actor::Channel, Action::recv(Packet::to_receiver(3)), 1});
  trace.append({at_tick(3), Actor::Receiver, Action::write(1), 2});
  trace.append({at_tick(4), Actor::Receiver, Action::internal(2), 3});
  const std::string text = ioa::trace_to_string(trace);
  EXPECT_NE(text.find("0 0 t send tr 3"), std::string::npos) << text;
  EXPECT_NE(text.find("1 2 c recv tr 3"), std::string::npos);
  EXPECT_NE(text.find("2 3 r write 1"), std::string::npos);
  EXPECT_NE(text.find("3 4 r internal 2 idle_r"), std::string::npos);
}

TEST(TraceIo, CommentsAndBlankLinesIgnored) {
  const std::string text = "# header\n\n0 0 t send tr 1\n# trailing\n";
  const TimedTrace parsed = ioa::parse_trace_string(text);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed.events()[0].action, Action::send(Packet::to_receiver(1)));
}

TEST(TraceIo, MalformedInputRejected) {
  EXPECT_THROW((void)ioa::parse_trace_string("garbage\n"), ModelError);
  EXPECT_THROW((void)ioa::parse_trace_string("0 0 x send tr 1\n"), ModelError);
  EXPECT_THROW((void)ioa::parse_trace_string("0 0 t send sideways 1\n"), ModelError);
  EXPECT_THROW((void)ioa::parse_trace_string("0 0 t write 2\n"), ModelError);
  EXPECT_THROW((void)ioa::parse_trace_string("0 0 t explode\n"), ModelError);
  // Non-monotone times.
  EXPECT_THROW((void)ioa::parse_trace_string("0 5 t write 1\n1 4 t write 1\n"), ModelError);
}

TEST(TraceStats, GapAndDelayExtremesMatchTheEnvironment) {
  // Fixed-rate c2 scheduler + max-delay channel: every gap is exactly c2,
  // every delay exactly d.
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.k = 4;
  cfg.input = core::make_random_input(20, 3);
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Beta, cfg, Environment::worst_case());
  const core::TraceStats stats = core::compute_trace_stats(run.result.trace);
  ASSERT_TRUE(stats.transmitter.min_gap.has_value());
  EXPECT_EQ(*stats.transmitter.min_gap, cfg.params.c2);
  EXPECT_EQ(*stats.transmitter.max_gap, cfg.params.c2);
  ASSERT_TRUE(stats.data.min_delay.has_value());
  EXPECT_EQ(*stats.data.min_delay, cfg.params.d);
  EXPECT_EQ(*stats.data.max_delay, cfg.params.d);
  EXPECT_EQ(stats.data.unmatched_sends, 0u);
  EXPECT_EQ(stats.writes, 20u);
}

TEST(TraceStats, RandomDelaysSpanTheWindow) {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 8);
  cfg.k = 8;
  cfg.input = core::make_random_input(300, 5);
  const core::ProtocolRun run =
      core::run_protocol(ProtocolKind::Gamma, cfg, Environment::randomized(9));
  const core::TraceStats stats = core::compute_trace_stats(run.result.trace);
  ASSERT_TRUE(stats.data.min_delay.has_value());
  EXPECT_LT(stats.data.min_delay->ticks(), 3);
  EXPECT_GT(stats.data.max_delay->ticks(), 5);
  EXPECT_GT(stats.data.mean_delay, 2.0);
  EXPECT_LT(stats.data.mean_delay, 6.0);
  // γ acknowledges everything.
  EXPECT_EQ(stats.acks.delivered, stats.data.delivered);
}

TEST(TraceStats, AcksTrackedSeparatelyFromData) {
  const core::ProtocolRun run = sample_run(ProtocolKind::Beta);
  const core::TraceStats stats = core::compute_trace_stats(run.result.trace);
  EXPECT_GT(stats.data.delivered, 0u);
  EXPECT_EQ(stats.acks.delivered, 0u);  // r-passive: no ack traffic
  EXPECT_FALSE(stats.acks.min_delay.has_value());
}

TEST(TraceStats, InFlightPeakRespectsGammaWindow) {
  const core::ProtocolRun run = sample_run(ProtocolKind::Gamma);
  const core::TraceStats stats = core::compute_trace_stats(run.result.trace);
  // δ2 = 3 data packets max, plus up to δ2 acks in flight.
  EXPECT_LE(stats.max_in_flight, 6u);
  EXPECT_GE(stats.max_in_flight, 1u);
}

TEST(TraceStats, EmptyTrace) {
  const core::TraceStats stats = core::compute_trace_stats(TimedTrace{});
  EXPECT_EQ(stats.writes, 0u);
  EXPECT_EQ(stats.transmitter.steps, 0u);
  EXPECT_FALSE(stats.data.min_delay.has_value());
  EXPECT_DOUBLE_EQ(stats.write_throughput, 0.0);
}

TEST(TraceStats, PrintsAReadableSummary) {
  const core::ProtocolRun run = sample_run();
  std::ostringstream os;
  os << core::compute_trace_stats(run.result.trace);
  const std::string text = os.str();
  EXPECT_NE(text.find("A_t:"), std::string::npos);
  EXPECT_NE(text.find("data:"), std::string::npos);
  EXPECT_NE(text.find("peak in-flight"), std::string::npos);
}

}  // namespace
}  // namespace rstp
