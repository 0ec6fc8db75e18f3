// Host-time decorators for the three interfaces the simulator drives.
//
// Each decorator owns the part it wraps, forwards every call to it, and
// times the calls that do the per-event work into an obs::HostTimer:
// Automaton::step and deliver, StepScheduler::next_gap, and
// DeliveryPolicy::choose. sim::Session installs them at construction when
// SimConfig::host_timer is set, so a session without a recorder runs the
// bare parts and the simulator has no timing code at all. Decorators only
// read the clock: a decorated session's RunResult equals the undecorated
// one field for field.
#pragma once

#include <memory>
#include <utility>

#include "rstp/channel/channel.h"
#include "rstp/ioa/automaton.h"
#include "rstp/obs/host_timer.h"
#include "rstp/sim/scheduler.h"

namespace rstp::sim {

/// Times step() (a local step) and deliver() (a delivery), the two calls
/// the simulator makes per event; enabled_local(), which it reads only to
/// resume a stopped process, and apply(), which it never calls, are
/// forwarded untimed. counter_source() returns the wrapped automaton's, so
/// the simulator folds the same protocol counters.
class TimedAutomaton final : public ioa::Automaton {
 public:
  TimedAutomaton(std::unique_ptr<ioa::Automaton> inner, obs::HostTimer& timer);

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override {
    return inner_->enabled_local();
  }
  void apply(const ioa::Action& action) override { inner_->apply(action); }
  bool step(ioa::LocalStep& out) override;
  bool deliver(const ioa::Packet& packet) override;
  [[nodiscard]] bool accepts_input(const ioa::Action& action) const override {
    return inner_->accepts_input(action);
  }
  [[nodiscard]] bool quiescent() const override { return inner_->quiescent(); }
  [[nodiscard]] std::string snapshot() const override { return inner_->snapshot(); }
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override { return inner_->clone(); }
  [[nodiscard]] const obs::CounterSource* counter_source() const override {
    return inner_->counter_source();
  }

 private:
  std::unique_ptr<ioa::Automaton> inner_;
  obs::HostTimer& timer_;
  obs::HostTimer::LayerId step_;
  obs::HostTimer::LayerId deliver_;
};

/// Times next_gap(); the one first_offset() per process is left untimed.
class TimedScheduler final : public StepScheduler {
 public:
  TimedScheduler(std::unique_ptr<StepScheduler> inner, obs::HostTimer& timer);
  [[nodiscard]] Duration first_offset() override { return inner_->first_offset(); }
  [[nodiscard]] Duration next_gap(std::uint64_t step_index) override;

 private:
  std::unique_ptr<StepScheduler> inner_;
  obs::HostTimer& timer_;
  obs::HostTimer::LayerId next_gap_;
};

/// Times every choose().
class TimedPolicy final : public channel::DeliveryPolicy {
 public:
  TimedPolicy(std::unique_ptr<channel::DeliveryPolicy> inner, obs::HostTimer& timer);
  [[nodiscard]] channel::Delivery choose(const ioa::Packet& packet, Time sent_at, Time deadline,
                                         std::uint64_t send_seq) override;

 private:
  std::unique_ptr<channel::DeliveryPolicy> inner_;
  obs::HostTimer& timer_;
  obs::HostTimer::LayerId choose_;
};

/// Each part, decorated when `timer` is set.
[[nodiscard]] std::unique_ptr<ioa::Automaton> with_host_timer(
    std::unique_ptr<ioa::Automaton> automaton, obs::HostTimer* timer);
[[nodiscard]] std::unique_ptr<StepScheduler> with_host_timer(std::unique_ptr<StepScheduler> sched,
                                                             obs::HostTimer* timer);
[[nodiscard]] std::unique_ptr<channel::DeliveryPolicy> with_host_timer(
    std::unique_ptr<channel::DeliveryPolicy> policy, obs::HostTimer* timer);

}  // namespace rstp::sim
