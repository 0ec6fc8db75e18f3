// The execution engine: produces one timed execution of A_t ∘ C(P) ∘ A_r
// inside good(A) (paper §4).
//
// The simulator owns the interleaving semantics:
//   * Each process takes local steps at instants chosen by its StepScheduler;
//     every returned offset/gap is validated against [0,c2] / [c1,c2], so all
//     generated executions satisfy Σ(A_t, A_r) by construction.
//   * recv events fire at the channel's delivery instants (inputs to the
//     destination process; they do not consume a process step).
//   * Simultaneous events are ordered deterministically: deliveries first,
//     then the transmitter's step, then the receiver's step. Within a batch
//     of simultaneous deliveries the channel's (order_key, send_seq) order
//     applies. This tie rule is the discrete stand-in for the continuous
//     model's measure-zero coincidences; the verifier does not rely on it.
//   * A process whose automaton has no enabled local action is stopped (the
//     execution restricted to it is finite and fair); it resumes stepping if
//     a later input re-enables it.
//
// Observation: SimConfig::observer (sim/observer.h) is the one hook for
// model time — tracer, estimator, verifier and search coverage all attach
// there. Its on_event fires once per applied event, from record(), with an
// EventContext (step gap, send instant, send seq, counters) built only when
// an observer is armed; on_finish fires once, from take_result(). Host
// time is measured outside the simulator, by decorators that
// sim::Session installs around its parts (SimConfig::host_timer). Faults
// outside the model come only from the channel's injector
// (Channel::set_fault_injector); the simulator itself never loses a packet.
//
// Wiring: the loop is one template, BasicSimulator<T, R, S> over the
// transmitter, receiver and step-law types (members in simulator_impl.h),
// with two kinds of instance. Simulator, over the ioa::Automaton and
// StepScheduler interfaces, runs any parts (sim/simulator.cpp). Each
// protocol's .cpp instantiates its pair over FixedRateScheduler, where its
// step() and the gap are direct calls. Both run every check. sim::Session
// (sim/session.h) owns the parts and picks the instance; core::make_session
// builds one. Simulator's constructor stays public for hand-wired parts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "rstp/channel/channel.h"
#include "rstp/common/check.h"
#include "rstp/core/params.h"
#include "rstp/ioa/automaton.h"
#include "rstp/ioa/trace.h"
#include "rstp/obs/host_timer.h"
#include "rstp/obs/run_metrics.h"
#include "rstp/sim/observer.h"
#include "rstp/sim/scheduler.h"

namespace rstp::sim {

struct SimConfig {
  core::TimingParams params{};
  /// Per-process step-gap laws (the paper's §7 generalization where each
  /// process has its own c1, c2). Unset means `params` applies to both.
  /// Only c1/c2 of the overrides are used; d always comes from `params`.
  std::optional<core::TimingParams> transmitter_params;
  std::optional<core::TimingParams> receiver_params;
  /// Cap on applied actions; a run that hits it reports quiescent=false.
  /// The cap is checked between dispatches, and one delivery dispatch
  /// applies its whole due batch, so a capped run can overshoot the cap by
  /// less than one delivery batch (MultiSession.MatchesNIndependentRunProtocolCalls
  /// pins the overshoot).
  std::uint64_t max_events = 10'000'000;
  /// Record the full timed trace (disable for very long effort runs).
  bool record_trace = true;
  /// Optional observer (non-owning, must outlive run()) called once per
  /// applied event and once at the end; see sim/observer.h. Null (the
  /// default) costs at most one pointer test per event.
  SimObserver* observer = nullptr;
  /// Optional host-time recorder (non-owning, must outlive the run).
  /// sim::Session reads it once, at construction, and wraps the automata,
  /// schedulers and delivery policy in timing decorators
  /// (sim/host_timing.h); the Simulator itself never reads it.
  obs::HostTimer* host_timer = nullptr;
};

struct RunResult {
  ioa::TimedTrace trace;                          ///< empty when !record_trace
  std::vector<ioa::Bit> output;                   ///< Y: messages written, in order
  std::optional<Time> last_transmitter_send;      ///< t(last-send) for effort
  Time end_time{};                                ///< time of the last event
  /// Copies of metrics.counters' events, transmitter_steps, receiver_steps,
  /// data_sends, ack_sends and dropped, made once by take_result().
  std::uint64_t event_count = 0;
  std::uint64_t transmitter_steps = 0;
  std::uint64_t receiver_steps = 0;
  std::uint64_t transmitter_sends = 0;
  std::uint64_t receiver_sends = 0;
  std::uint64_t dropped_packets = 0;
  /// Faults the channel's injector applied (empty without an injector; see
  /// channel::Channel::set_fault_injector). The fault-aware verifier consumes
  /// this log to excuse the violations the injected faults explain.
  std::vector<fault::FaultEvent> faults;
  bool quiescent = false;  ///< true iff the run ended in global quiescence
  /// Always-on structured metrics (O(1) memory, populated even when
  /// record_trace is false): per-direction send/recv/drop counters, protocol
  /// automata counters, and delay/gap histograms. Pure functions of the
  /// simulated execution — safe to compare across thread counts.
  obs::RunMetrics metrics;
};

/// Throws the ModelError naming a first offset (`first`) or gap outside the
/// process's step law.
[[noreturn, gnu::cold]] void throw_out_of_law(Duration value, const core::TimingParams& law,
                                              bool first);

/// The loop over a transmitter type T, a receiver type R and a step-law
/// type S (see "Wiring" above).
template <class T, class R, class S>
class BasicSimulator {
 public:
  /// All references must outlive run(). The channel must be empty and the
  /// automata in their start states; run() may be called once.
  BasicSimulator(T& transmitter, R& receiver, channel::Channel& chan, S& transmitter_sched,
                 S& receiver_sched, SimConfig config);

  /// Runs to global quiescence (both processes stopped or quiescent with no
  /// pending work and the channel empty) or to the event cap.
  [[nodiscard]] RunResult run();

  // --- Incremental driving ---------------------------------------------------
  // The sequence
  //   start(); while (next_instant()) advance(); take_result()
  // is exactly run(): run() itself is implemented on top of these. The other
  // caller is the layer benchmark's replay (bench_layers), which times each
  // call apart. A session driven incrementally produces a bitwise-identical
  // RunResult however its dispatches are interleaved with other work. The
  // two APIs are mutually exclusive on one instance.

  /// Validates and arms the run: configures the metric histograms and draws
  /// both processes' first step offsets. May be called once.
  void start();

  /// The instant of the next pending dispatch: the earliest of the channel's
  /// next delivery and both processes' next steps. nullopt when the run is
  /// over — the event cap was reached or the session is globally quiescent.
  /// Computing it also decides which source is due; both are cached until
  /// the next advance(), so repeated calls are free. Inline so the caller
  /// builds the optional in registers from the cached fields.
  [[nodiscard]] std::optional<Time> next_instant() {
    if (!pending()) return std::nullopt;
    return instant_;
  }

  /// Applies exactly one dispatch at next_instant(): the due delivery batch
  /// if one is pending, else the transmitter's step, else the receiver's.
  /// Requires next_instant() to have a value.
  void advance();

  /// Sizes RunResult::output for `bits` writes at the run's first write, so
  /// Y is allocated once and a run that writes nothing allocates nothing
  /// for it. The session builder calls it with |X| (sim/session.h).
  void reserve_output(std::size_t bits) { output_bits_ = bits; }

  /// Folds the automata counters and the channel fault log into the result
  /// and returns it. Requires next_instant() == nullopt; call once.
  [[nodiscard]] RunResult take_result();

 private:
  template <class A>
  struct ProcessState {
    A* automaton = nullptr;
    S* scheduler = nullptr;
    /// The process's step law (its own override, else SimConfig::params),
    /// resolved once in the constructor; only c1 and c2 are read.
    core::TimingParams law{};
    Time next_step{};
    Time last_step_time{};  ///< instant of the previous local step (gap metric)
    bool stopped = false;
    /// automaton->quiescent(), read after start() and after every transition
    /// of this automaton (its own steps and deliveries to it). Quiescence is
    /// a predicate of the automaton's state, so the copy is exact.
    bool quiescent = false;
  };

  /// The source of the next dispatch, decided with the instant.
  enum class Due : std::uint8_t { Delivery, Transmitter, Receiver };

  /// Process kId's local steps so far; RunCounters alone counts them.
  template <ioa::ProcessId kId>
  [[nodiscard]] std::uint64_t& steps_taken() {
    return kId == ioa::ProcessId::Transmitter ? result_.metrics.counters.transmitter_steps
                                              : result_.metrics.counters.receiver_steps;
  }

  // record(), validated_first_offset() and validated_gap() run on every
  // event, so they are inline; the error path is one cold function.

  /// The one record point of an applied event: counts it, appends a write
  /// to Y, appends it to the trace and hands it to the observer with the
  /// context `make_context()` builds, which it calls only when an observer
  /// is armed.
  template <class MakeContext>
  void record(Time time, ioa::Actor actor, const ioa::Action& action,
              const MakeContext& make_context) {
    ++result_.metrics.counters.events;
    result_.end_time = time;
    if (action.kind == ioa::ActionKind::Write) {
      if (result_.output.empty()) result_.output.reserve(output_bits_);
      result_.output.push_back(action.message);
      ++result_.metrics.counters.writes;
    }
    // record_events_ caches `record_trace || observer` so the common
    // headless configuration (campaign/effort runs) skips the TimedEvent
    // construction entirely.
    if (record_events_) {
      const ioa::TimedEvent event{time, actor, action, next_seq_};
      if (config_.record_trace) result_.trace.append(event);
      if (config_.observer != nullptr) config_.observer->on_event(event, make_context());
    }
    ++next_seq_;
  }
  /// Process kId's local step, and a delivery to process kTo; `ps` is its
  /// state.
  template <ioa::ProcessId kId, class A>
  void take_process_step(ProcessState<A>& ps);
  template <ioa::ProcessId kTo, class A>
  void deliver(ProcessState<A>& ps, const channel::InFlightPacket& flight);
  /// The process's first step offset, checked against [0, c2].
  [[nodiscard]] static Duration validated_first_offset(const auto& ps) {
    const Duration first = ps.scheduler->first_offset();
    if (first.is_negative() || first > ps.law.c2) throw_out_of_law(first, ps.law, true);
    return first;
  }
  /// The gap before local step `step_index` (>= 1), checked against [c1, c2].
  [[nodiscard]] static Duration validated_gap(const auto& ps, std::uint64_t step_index) {
    const Duration gap = ps.scheduler->next_gap(step_index);
    if (gap < ps.law.c1 || gap > ps.law.c2) throw_out_of_law(gap, ps.law, false);
    return gap;
  }

  /// True when nothing remains: event cap reached or globally quiescent.
  [[nodiscard]] bool finished() const;
  /// Fills instant_ and due_ and returns true, or returns false when
  /// finished().
  [[nodiscard]] bool compute_next_instant();
  /// Whether a dispatch is pending; fills the cache first if advance()
  /// invalidated it.
  [[nodiscard]] bool pending() {
    RSTP_CHECK(ran_, "next_instant requires start()");
    if (!instant_valid_) {
      has_instant_ = compute_next_instant();
      instant_valid_ = true;
    }
    return has_instant_;
  }

  channel::Channel* channel_;
  SimConfig config_;
  ProcessState<T> transmitter_;
  ProcessState<R> receiver_;
  /// Each automaton's counter_source() (null when it has none), read once
  /// in the constructor for the observer's EventContext and take_result().
  const obs::CounterSource* counter_sources_[2] = {nullptr, nullptr};
  std::uint64_t next_seq_ = 0;
  std::size_t output_bits_ = 0;  ///< reserve_output(): Y's capacity at the first write
  bool record_events_ = false;  ///< cached record_trace || observer != nullptr
  bool ran_ = false;
  bool taken_ = false;
  /// Cached next_instant(), valid until the next advance(): has_instant_
  /// says whether a dispatch is pending; if so, instant_ and due_ give its
  /// instant and source. Plain fields, not a std::optional<Time>: an
  /// optional written as flag + value and reloaded as one 16-byte load
  /// stalls store-to-load forwarding (docs/PERF.md).
  Time instant_{};
  Due due_ = Due::Delivery;
  bool has_instant_ = false;
  bool instant_valid_ = false;
  /// The in-progress result of the incremental API; run() uses it too.
  RunResult result_;
};

using Simulator = BasicSimulator<ioa::Automaton, ioa::Automaton, StepScheduler>;
extern template class BasicSimulator<ioa::Automaton, ioa::Automaton, StepScheduler>;

}  // namespace rstp::sim
