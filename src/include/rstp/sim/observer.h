// The one observation hook of a simulated execution (SimConfig::observer).
//
// An observer has two hooks: on_event, once per applied event, and
// on_finish, once at the end of the run. on_event fires from the
// simulator's one record point, in execution order, and always before its
// next automaton call — the online estimator relies on this, since the
// adaptive protocols freeze plans from its state. The event says what
// happened; the EventContext beside it carries what the event itself lacks.
// Observers are pure readers: arming one cannot change any result bit.
#pragma once

#include <cstdint>
#include <vector>

#include "rstp/fault/fault.h"
#include "rstp/ioa/trace.h"
#include "rstp/obs/run_metrics.h"

namespace rstp::sim {

/// What an applied event does not say about itself. Fields that do not
/// apply to the event's kind are zero.
struct EventContext {
  /// A local step: the realized gap since the same process's previous step.
  /// Zero on its first step; a real gap is at least c1 >= 1.
  Duration gap{};
  /// A delivery (recv): the instant the packet was sent.
  Time sent_at{};
  /// A send or a delivery: the channel seq the packet carries.
  std::uint64_t send_seq = 0;
  /// The counters of the process the event changed (the stepping process,
  /// or a delivery's destination), read after the transition; null when its
  /// automaton has none.
  const obs::CounterSource* counters = nullptr;
};

/// The simulator holds an observer's address for the whole run, so
/// observers are neither copied nor moved.
class SimObserver {
 public:
  SimObserver() = default;
  SimObserver(const SimObserver&) = delete;
  SimObserver& operator=(const SimObserver&) = delete;
  virtual ~SimObserver() = default;

  /// Every applied event, deliveries and local steps alike, in execution
  /// order. A send is reported before it enters the channel. Throwing
  /// aborts the run with the exception.
  virtual void on_event(const ioa::TimedEvent& /*event*/, const EventContext& /*context*/) {}

  /// End of run, with the channel's fault log.
  virtual void on_finish(Time /*end*/, const std::vector<fault::FaultEvent>& /*faults*/) {}
};

/// Forwards both hooks to two observers, first then second. Either may be
/// null; arm the pointer armed() returns, never the tee itself.
class ObserverTee final : public SimObserver {
 public:
  ObserverTee(SimObserver* first, SimObserver* second) : first_(first), second_(second) {}

  /// The pointer to arm: null when neither observer is set, the lone
  /// observer when only one is, else this tee.
  [[nodiscard]] SimObserver* armed() {
    if (first_ == nullptr) return second_;
    if (second_ == nullptr) return first_;
    return this;
  }

  void on_event(const ioa::TimedEvent& e, const EventContext& context) override {
    first_->on_event(e, context);
    second_->on_event(e, context);
  }
  void on_finish(Time end, const std::vector<fault::FaultEvent>& faults) override {
    first_->on_finish(end, faults);
    second_->on_finish(end, faults);
  }

 private:
  SimObserver* first_;
  SimObserver* second_;
};

}  // namespace rstp::sim
