// Trace statistics: quantitative summaries of a timed execution.
//
// Where the verifier answers "is this execution in good(A)?", the stats
// module answers "what did the execution look like?" — per-process step
// counts and gap extremes, per-direction delay distributions, channel
// occupancy, and throughput figures. `rstp run --stats` and the telemetry
// example use it to report more than a single effort number, and its
// delay/gap extremes give tests an independent way to assert an environment
// behaved as configured (e.g. "the random policy actually produced delays
// spanning [0, d]").
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>

#include "rstp/ioa/trace.h"

namespace rstp::core {

struct GapStats {
  std::uint64_t steps = 0;  ///< local events of the process
  std::optional<Duration> min_gap;
  std::optional<Duration> max_gap;
  double mean_gap = 0;  ///< 0 when fewer than two events
};

struct DelayStats {
  std::uint64_t delivered = 0;  ///< matched send→recv pairs
  std::uint64_t unmatched_sends = 0;
  std::optional<Duration> min_delay;
  std::optional<Duration> max_delay;
  double mean_delay = 0;
  /// Nearest-rank tail latencies over the matched deliveries, computed with
  /// the obs::Histogram machinery (width-1 buckets up to 4096 ticks of spread,
  /// so exact for every realistic d). Unset when nothing was delivered. The
  /// tails — not the mean — are what a latency budget must be held against:
  /// a link can meet a mean budget while routinely blowing it at p99.
  std::optional<Duration> p50_delay;
  std::optional<Duration> p95_delay;
  std::optional<Duration> p99_delay;
};

struct TraceStats {
  GapStats transmitter;
  GapStats receiver;
  DelayStats data;  ///< t→r packets
  DelayStats acks;  ///< r→t packets
  std::uint64_t writes = 0;
  std::uint64_t max_in_flight = 0;  ///< peak packets simultaneously in the channel
  Time end_time{};
  std::optional<Time> last_transmitter_send;
  /// Writes per tick of total execution time (0 for empty/instant traces).
  double write_throughput = 0;
};

/// Computes all statistics in one pass over the trace. Unmatched recvs are
/// ignored here (the verifier owns flagging them).
[[nodiscard]] TraceStats compute_trace_stats(const ioa::TimedTrace& trace);

std::ostream& operator<<(std::ostream& os, const TraceStats& stats);

}  // namespace rstp::core
