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
// there. Host time is measured outside the simulator, by decorators that
// sim::Session installs around its parts (SimConfig::host_timer). Faults
// outside the model come only from the channel's injector
// (Channel::set_fault_injector); the simulator itself never loses a packet.
//
// Wiring: sim::Session (sim/session.h) owns a Simulator together with the
// automata, schedulers and channel it drives, and core::make_session builds
// one from an Environment. The reference constructor below stays public for
// tests and benchmarks that wire their own parts.
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
  /// Hard cap on applied actions; a run that hits it reports quiescent=false.
  std::uint64_t max_events = 10'000'000;
  /// Record the full timed trace (disable for very long effort runs).
  bool record_trace = true;
  /// Optional observer (non-owning, must outlive run()) called at every
  /// record point; see sim/observer.h. Null (the default) costs one pointer
  /// test per hook.
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

class Simulator {
 public:
  /// All references must outlive run(). The channel must be empty and the
  /// automata in their start states; run() may be called once.
  Simulator(ioa::Automaton& transmitter, ioa::Automaton& receiver, channel::Channel& chan,
            StepScheduler& transmitter_sched, StepScheduler& receiver_sched, SimConfig config);

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

  /// Folds the automata counters and the channel fault log into the result
  /// and returns it. Requires next_instant() == nullopt; call once.
  [[nodiscard]] RunResult take_result();

 private:
  struct ProcessState {
    ioa::Automaton* automaton = nullptr;
    StepScheduler* scheduler = nullptr;
    /// The process's step law (its own override, else SimConfig::params),
    /// resolved once in the constructor; only c1 and c2 are read.
    core::TimingParams law{};
    Time next_step{};
    Time last_step_time{};  ///< instant of the previous local step (gap metric)
    std::uint64_t steps_taken = 0;
    bool stopped = false;
    /// automaton->quiescent(), read after start() and after every transition
    /// of this automaton (its own steps and deliveries to it). Quiescence is
    /// a predicate of the automaton's state, so the copy is exact.
    bool quiescent = false;
  };

  /// The source of the next dispatch, decided with the instant.
  enum class Due : std::uint8_t { Delivery, Transmitter, Receiver };

  void record(RunResult& result, Time time, ioa::Actor actor, const ioa::Action& action);
  void take_process_step(RunResult& result, ProcessState& ps, ioa::ProcessId id);
  void deliver_due(RunResult& result, Time now);
  [[nodiscard]] static Duration validated_gap(const ProcessState& ps, std::uint64_t step_index);

  [[nodiscard]] const obs::ProtocolCounters* counters_of(ioa::ProcessId id) const;

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
  ProcessState procs_[2];  // indexed by ProcessId
  /// Cached CounterSource view of each automaton (null when it has none);
  /// resolved once in the constructor so observer hooks skip the dynamic_cast.
  const obs::CounterSource* counter_sources_[2] = {nullptr, nullptr};
  std::uint64_t next_seq_ = 0;
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

}  // namespace rstp::sim
