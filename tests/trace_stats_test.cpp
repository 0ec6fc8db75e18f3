// Edge-case tests for core::compute_trace_stats: degenerate traces and the
// tail-latency percentiles added for latency-budget decisions.
#include <gtest/gtest.h>

#include "rstp/core/effort.h"
#include "rstp/core/trace_stats.h"
#include "rstp/ioa/trace.h"

namespace rstp {
namespace {

using ioa::Action;
using ioa::Actor;
using ioa::Packet;
using ioa::TimedTrace;

TEST(TraceStatsEdge, EmptyTraceLeavesEverythingZeroAndUnset) {
  const core::TraceStats stats = core::compute_trace_stats(TimedTrace{});
  EXPECT_EQ(stats.writes, 0u);
  EXPECT_EQ(stats.max_in_flight, 0u);
  EXPECT_EQ(stats.transmitter.steps, 0u);
  EXPECT_EQ(stats.receiver.steps, 0u);
  EXPECT_DOUBLE_EQ(stats.transmitter.mean_gap, 0.0);
  EXPECT_DOUBLE_EQ(stats.write_throughput, 0.0);
  EXPECT_FALSE(stats.transmitter.min_gap.has_value());
  EXPECT_FALSE(stats.data.min_delay.has_value());
  EXPECT_FALSE(stats.data.p50_delay.has_value());
  EXPECT_FALSE(stats.last_transmitter_send.has_value());
}

TEST(TraceStatsEdge, UnmatchedSendsOnlyCountAsOutstanding) {
  TimedTrace trace;
  trace.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(1)), 0});
  trace.append({at_tick(2), Actor::Transmitter, Action::send(Packet::to_receiver(2)), 1});
  trace.append({at_tick(3), Actor::Receiver, Action::send(Packet::to_transmitter(0)), 2});
  const core::TraceStats stats = core::compute_trace_stats(trace);
  EXPECT_EQ(stats.data.delivered, 0u);
  EXPECT_EQ(stats.data.unmatched_sends, 2u);
  EXPECT_EQ(stats.acks.unmatched_sends, 1u);
  EXPECT_EQ(stats.max_in_flight, 3u);
  // No delivery ⇒ no delay distribution at all, not a zero-filled one.
  EXPECT_FALSE(stats.data.min_delay.has_value());
  EXPECT_FALSE(stats.data.p50_delay.has_value());
  EXPECT_DOUBLE_EQ(stats.data.mean_delay, 0.0);
  ASSERT_TRUE(stats.last_transmitter_send.has_value());
  EXPECT_EQ(*stats.last_transmitter_send, at_tick(2));
}

TEST(TraceStatsEdge, SingleEventTraceHasNoGapsOrThroughput) {
  TimedTrace trace;
  trace.append({at_tick(0), Actor::Transmitter, Action::internal(0), 0});
  const core::TraceStats stats = core::compute_trace_stats(trace);
  EXPECT_EQ(stats.transmitter.steps, 1u);
  EXPECT_FALSE(stats.transmitter.min_gap.has_value());
  EXPECT_DOUBLE_EQ(stats.transmitter.mean_gap, 0.0);
  EXPECT_EQ(stats.writes, 0u);
  // end_time 0 and no writes: throughput must stay 0, not divide by zero.
  EXPECT_DOUBLE_EQ(stats.write_throughput, 0.0);
}

TEST(TraceStatsEdge, WriteAtTickZeroKeepsThroughputZero) {
  TimedTrace trace;
  trace.append({at_tick(0), Actor::Receiver, Action::write(1), 0});
  const core::TraceStats stats = core::compute_trace_stats(trace);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_DOUBLE_EQ(stats.write_throughput, 0.0);  // zero-duration execution
}

TEST(TraceStatsPercentiles, NearestRankTailsOverAKnownDistribution) {
  // 100 deliveries: 90 at delay 2, 9 at delay 7, one straggler at 30.
  TimedTrace trace;
  std::uint64_t seq = 0;
  std::int64_t t = 0;
  const auto deliver = [&](std::int64_t delay) {
    trace.append({at_tick(t), Actor::Transmitter, Action::send(Packet::to_receiver(1)), seq++});
    trace.append({at_tick(t + delay), Actor::Channel, Action::recv(Packet::to_receiver(1)),
                  seq++});
    t += delay + 1;
  };
  for (int i = 0; i < 90; ++i) deliver(2);
  for (int i = 0; i < 9; ++i) deliver(7);
  deliver(30);
  const core::TraceStats stats = core::compute_trace_stats(trace);
  ASSERT_EQ(stats.data.delivered, 100u);
  ASSERT_TRUE(stats.data.p50_delay.has_value());
  EXPECT_EQ(stats.data.p50_delay->ticks(), 2);
  EXPECT_EQ(stats.data.p95_delay->ticks(), 7);
  EXPECT_EQ(stats.data.p99_delay->ticks(), 7);
  EXPECT_EQ(stats.data.max_delay->ticks(), 30);
  // The mean (2.73) would pass a budget of 3 that p95 (7) rightly fails.
  EXPECT_LT(stats.data.mean_delay, 3.0);
  EXPECT_GT(static_cast<double>(stats.data.p95_delay->ticks()), 3.0);
}

TEST(TraceStatsPercentiles, RealRunTailsAreWithinTheModelWindow) {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 8);
  cfg.k = 8;
  cfg.input = core::make_random_input(200, 5);
  const core::ProtocolRun run = core::run_protocol(
      protocols::ProtocolKind::Gamma, cfg, core::Environment::randomized(9));
  const core::TraceStats stats = core::compute_trace_stats(run.result.trace);
  ASSERT_TRUE(stats.data.p50_delay.has_value());
  EXPECT_LE(stats.data.p50_delay->ticks(), stats.data.p95_delay->ticks());
  EXPECT_LE(stats.data.p95_delay->ticks(), stats.data.p99_delay->ticks());
  EXPECT_LE(stats.data.p99_delay->ticks(), stats.data.max_delay->ticks());
  EXPECT_LE(stats.data.p99_delay->ticks(), cfg.params.d.ticks());
  EXPECT_GE(stats.data.p50_delay->ticks(), stats.data.min_delay->ticks());
}

}  // namespace
}  // namespace rstp
