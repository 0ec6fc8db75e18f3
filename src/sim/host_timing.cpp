#include "rstp/sim/host_timing.h"

namespace rstp::sim {

// Layer names are `module.call`, the form of bench_layers' per-layer metric
// names.

TimedAutomaton::TimedAutomaton(std::unique_ptr<ioa::Automaton> inner, obs::HostTimer& timer)
    : inner_(std::move(inner)),
      timer_(timer),
      step_(timer.layer("protocols.step")),
      deliver_(timer.layer("protocols.deliver")) {}

bool TimedAutomaton::step(ioa::LocalStep& out) {
  const obs::HostTimer::Scope scope{timer_, step_};
  return inner_->step(out);
}

bool TimedAutomaton::deliver(const ioa::Packet& packet) {
  const obs::HostTimer::Scope scope{timer_, deliver_};
  return inner_->deliver(packet);
}

TimedScheduler::TimedScheduler(std::unique_ptr<StepScheduler> inner, obs::HostTimer& timer)
    : inner_(std::move(inner)), timer_(timer), next_gap_(timer.layer("sim.scheduler.next_gap")) {}

Duration TimedScheduler::next_gap(std::uint64_t step_index) {
  const obs::HostTimer::Scope scope{timer_, next_gap_};
  return inner_->next_gap(step_index);
}

TimedPolicy::TimedPolicy(std::unique_ptr<channel::DeliveryPolicy> inner, obs::HostTimer& timer)
    : inner_(std::move(inner)), timer_(timer), choose_(timer.layer("channel.policy_choose")) {}

channel::Delivery TimedPolicy::choose(const ioa::Packet& packet, Time sent_at, Time deadline,
                                      std::uint64_t send_seq) {
  const obs::HostTimer::Scope scope{timer_, choose_};
  return inner_->choose(packet, sent_at, deadline, send_seq);
}

std::unique_ptr<ioa::Automaton> with_host_timer(std::unique_ptr<ioa::Automaton> automaton,
                                                obs::HostTimer* timer) {
  if (timer == nullptr) return automaton;
  return std::make_unique<TimedAutomaton>(std::move(automaton), *timer);
}

std::unique_ptr<StepScheduler> with_host_timer(std::unique_ptr<StepScheduler> sched,
                                               obs::HostTimer* timer) {
  if (timer == nullptr) return sched;
  return std::make_unique<TimedScheduler>(std::move(sched), *timer);
}

std::unique_ptr<channel::DeliveryPolicy> with_host_timer(
    std::unique_ptr<channel::DeliveryPolicy> policy, obs::HostTimer* timer) {
  if (timer == nullptr) return policy;
  return std::make_unique<TimedPolicy>(std::move(policy), *timer);
}

}  // namespace rstp::sim
