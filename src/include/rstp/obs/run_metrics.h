// Structured per-run metrics: the compact, deterministic snapshot every
// simulation produces even when trace recording is off.
//
// Where a TimedTrace is the full event log (memory proportional to the run)
// and core::TraceStats a post-hoc pass over it, RunMetrics is accumulated
// *during* the run at O(1) memory: per-direction send/recv/drop counters,
// per-process step and internal-step counts, the protocol automata's own
// counters (reported uniformly through CounterSource), and fixed-bucket
// delay/gap histograms with nearest-rank percentiles. Everything in here is
// a pure function of the simulated execution — no wall-clock quantities —
// so campaign results carrying RunMetrics stay bitwise identical across
// thread counts.
#pragma once

#include <cstdint>

#include "rstp/obs/metrics.h"

namespace rstp::obs {

/// Counters every protocol automaton reports uniformly (the ProtocolBase
/// stat-hook). Protocols without a notion of blocks or acks leave the
/// irrelevant fields at zero; retransmissions stay zero for the paper's
/// protocols (the channel is lossless) and exist for fault-tolerant
/// variants and the drop-injection harness.
struct ProtocolCounters {
  std::uint64_t blocks_encoded = 0;   ///< transmitter: blocks fully sent
  std::uint64_t blocks_decoded = 0;   ///< receiver: blocks decoded to bits
  std::uint64_t acks_sent = 0;        ///< receiver: ack packets emitted
  std::uint64_t acks_observed = 0;    ///< transmitter: ack packets consumed
  std::uint64_t retransmissions = 0;  ///< re-sends of already-sent payload

  ProtocolCounters& operator+=(const ProtocolCounters& rhs) {
    blocks_encoded += rhs.blocks_encoded;
    blocks_decoded += rhs.blocks_decoded;
    acks_sent += rhs.acks_sent;
    acks_observed += rhs.acks_observed;
    retransmissions += rhs.retransmissions;
    return *this;
  }

  friend bool operator==(const ProtocolCounters&, const ProtocolCounters&) = default;
};

/// Implemented by automata that expose ProtocolCounters (every protocol
/// automaton, through protocols::ProcessBase). The simulator reads it through
/// ioa::Automaton::counter_source(), which ProcessBase answers without RTTI
/// and which falls back to a dynamic_cast for other automata; an automaton
/// without one contributes zero protocol counters.
class CounterSource {
 public:
  virtual ~CounterSource() = default;
  [[nodiscard]] virtual const ProtocolCounters& protocol_counters() const = 0;
};

/// The integral (histogram-free) half of RunMetrics. Mergeable across runs
/// with any parameters; the campaign's whole-grid totals are a fold of
/// these in job order.
struct RunCounters {
  std::uint64_t events = 0;           ///< applied actions (all kinds)
  std::uint64_t data_sends = 0;       ///< t→r send events
  std::uint64_t ack_sends = 0;        ///< r→t send events
  std::uint64_t data_recvs = 0;       ///< t→r deliveries
  std::uint64_t ack_recvs = 0;        ///< r→t deliveries
  std::uint64_t dropped = 0;          ///< fault-injected losses
  std::uint64_t writes = 0;           ///< output-tape appends
  std::uint64_t transmitter_steps = 0;
  std::uint64_t receiver_steps = 0;
  std::uint64_t transmitter_internal_steps = 0;  ///< wait_t / idle_t
  std::uint64_t receiver_internal_steps = 0;     ///< idle_r
  ProtocolCounters protocol;

  RunCounters& operator+=(const RunCounters& rhs) {
    events += rhs.events;
    data_sends += rhs.data_sends;
    ack_sends += rhs.ack_sends;
    data_recvs += rhs.data_recvs;
    ack_recvs += rhs.ack_recvs;
    dropped += rhs.dropped;
    writes += rhs.writes;
    transmitter_steps += rhs.transmitter_steps;
    receiver_steps += rhs.receiver_steps;
    transmitter_internal_steps += rhs.transmitter_internal_steps;
    receiver_internal_steps += rhs.receiver_internal_steps;
    protocol += rhs.protocol;
    return *this;
  }

  friend bool operator==(const RunCounters&, const RunCounters&) = default;
};

/// Final-state gauges of the online timing estimator (rstp::est), copied out
/// of a run when `--estimator` is active and left all-zero otherwise. Lives
/// here (not in est/) so the obs sinks and diff layers can carry it without
/// depending on the estimator module.
struct EstimatorGauges {
  std::int64_t c1_hat = 0;         ///< final ĉ1 estimate, ticks
  std::int64_t c2_hat = 0;         ///< final ĉ2 estimate, ticks
  std::int64_t d_hat = 0;          ///< final d̂ estimate, ticks
  std::uint64_t gap_samples = 0;   ///< step-gap observations consumed
  std::uint64_t delay_samples = 0; ///< send→delivery observations consumed
  std::uint64_t resizes = 0;       ///< block-boundary δ changes

  friend bool operator==(const EstimatorGauges&, const EstimatorGauges&) = default;
};

/// One run's full metric snapshot. Histogram windows come from the model
/// parameters (delays in [0, d], step gaps in [0, c2]), so two runs with the
/// same TimingParams have mergeable histograms.
struct RunMetrics {
  RunCounters counters;
  Histogram data_delay;       ///< t→r delivery delay, ticks
  Histogram ack_delay;        ///< r→t delivery delay, ticks
  Histogram transmitter_gap;  ///< gap between consecutive A_t steps, ticks
  Histogram receiver_gap;     ///< gap between consecutive A_r steps, ticks

  friend bool operator==(const RunMetrics&, const RunMetrics&) = default;
};

}  // namespace rstp::obs
