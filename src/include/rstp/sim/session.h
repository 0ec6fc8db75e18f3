// One owning session: A_t ∘ C(P) ∘ A_r wired into a Simulator.
//
// A Session holds the protocol pair, both step schedulers, the channel (with
// its optional fault injector) and the Simulator driving them. It can be
// neither copied nor moved, so the Simulator's pointers stay valid.
// core::make_session builds one from an Environment; sites with their own
// parts (genome schedulers, synthesized or drifting policies, a fault
// injector) pass them to the constructor.
#pragma once

#include <memory>
#include <utility>

#include "rstp/channel/channel.h"
#include "rstp/fault/fault.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/scheduler.h"
#include "rstp/sim/simulator.h"

namespace rstp::sim {

class Session {
 public:
  /// The channel's delay bound is `config.params.d`; `min_delay` is the
  /// general model's lower delivery edge. `injector`, when set, is attached
  /// to the channel for the whole run.
  Session(protocols::ProtocolInstance instance, std::unique_ptr<StepScheduler> transmitter_sched,
          std::unique_ptr<StepScheduler> receiver_sched,
          std::unique_ptr<channel::DeliveryPolicy> policy, SimConfig config,
          Duration min_delay = Duration{0},
          std::unique_ptr<fault::FaultInjector> injector = nullptr)
      : instance_(std::move(instance)),
        transmitter_sched_(std::move(transmitter_sched)),
        receiver_sched_(std::move(receiver_sched)),
        injector_(std::move(injector)),
        channel_(config.params.d, std::move(policy), min_delay),
        simulator_(*instance_.transmitter, *instance_.receiver, channel_, *transmitter_sched_,
                   *receiver_sched_, std::move(config)) {
    channel_.set_fault_injector(injector_.get());
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] Simulator& simulator() { return simulator_; }
  [[nodiscard]] channel::Channel& channel() { return channel_; }

  /// Runs the session to quiescence or the event cap (Simulator::run).
  [[nodiscard]] RunResult run() { return simulator_.run(); }

 private:
  protocols::ProtocolInstance instance_;
  std::unique_ptr<StepScheduler> transmitter_sched_;
  std::unique_ptr<StepScheduler> receiver_sched_;
  std::unique_ptr<fault::FaultInjector> injector_;
  channel::Channel channel_;
  Simulator simulator_;
};

}  // namespace rstp::sim
