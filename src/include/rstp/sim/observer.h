// The one observation hook of a simulated execution (SimConfig::observer).
//
// Callbacks fire at the simulator's record points, in execution order, and
// always before its next automaton call — the online estimator relies on
// this, since the adaptive protocols freeze plans from its state. Observers
// are pure readers: arming one cannot change any result bit.
#pragma once

#include <optional>
#include <vector>

#include "rstp/fault/fault.h"
#include "rstp/ioa/trace.h"
#include "rstp/obs/run_metrics.h"

namespace rstp::sim {

/// The simulator holds an observer's address for the whole run, so
/// observers are neither copied nor moved.
class SimObserver {
 public:
  SimObserver() = default;
  SimObserver(const SimObserver&) = delete;
  SimObserver& operator=(const SimObserver&) = delete;
  virtual ~SimObserver() = default;

  /// Every applied event, deliveries and local steps alike, in execution
  /// order. Throwing aborts the run with the exception.
  virtual void on_event(const ioa::TimedEvent& /*event*/) {}

  /// A local step the automaton just applied (its counters already
  /// advanced). `gap` is the realized gap since the process's previous step,
  /// nullopt on its first step.
  virtual void on_local_step(ioa::ProcessId /*id*/, Time /*at*/, const ioa::Action& /*action*/,
                             std::optional<Duration> /*gap*/,
                             const obs::ProtocolCounters* /*counters*/) {}

  /// A send about to enter the channel, with the channel seq it will carry.
  virtual void on_send(ioa::ProcessId /*id*/, Time /*at*/, const ioa::Packet& /*packet*/,
                       std::uint64_t /*send_seq*/) {}

  /// A delivery just applied to its destination.
  virtual void on_delivery(ioa::ProcessId /*dest*/, Time /*sent_at*/, Time /*deliver_at*/,
                           const ioa::Packet& /*packet*/, std::uint64_t /*send_seq*/,
                           const obs::ProtocolCounters* /*dest_counters*/) {}

  /// End of run, with the channel's fault log.
  virtual void on_finish(Time /*end*/, const std::vector<fault::FaultEvent>& /*faults*/) {}
};

/// Forwards every callback to two observers, first then second. Either may
/// be null; arm the pointer armed() returns, never the tee itself.
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

  void on_event(const ioa::TimedEvent& e) override {
    first_->on_event(e);
    second_->on_event(e);
  }
  void on_local_step(ioa::ProcessId id, Time at, const ioa::Action& action,
                     std::optional<Duration> gap, const obs::ProtocolCounters* c) override {
    first_->on_local_step(id, at, action, gap, c);
    second_->on_local_step(id, at, action, gap, c);
  }
  void on_send(ioa::ProcessId id, Time at, const ioa::Packet& p, std::uint64_t seq) override {
    first_->on_send(id, at, p, seq);
    second_->on_send(id, at, p, seq);
  }
  void on_delivery(ioa::ProcessId dest, Time sent_at, Time deliver_at, const ioa::Packet& p,
                   std::uint64_t seq, const obs::ProtocolCounters* c) override {
    first_->on_delivery(dest, sent_at, deliver_at, p, seq, c);
    second_->on_delivery(dest, sent_at, deliver_at, p, seq, c);
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
