// One owning session: A_t ∘ C(P) ∘ A_r and the simulator that runs it.
//
// A Session holds the protocol pair, both step schedulers and the channel
// (with its optional fault injector). It can be neither copied nor moved,
// so the simulator's pointers stay valid.
// core::make_session builds one from an Environment; sites with their own
// parts (genome schedulers, synthesized or drifting policies, a fault
// injector) pass them to the constructor. With SimConfig::host_timer set,
// every part is wrapped in its host-time decorator (sim/host_timing.h).
// RunResult::output is sized once, for the instance's |X| writes.
// run() picks the simulator instance (sim/simulator.h), in
// src/sim/session.cpp: a pair that make_protocol built, undecorated, with
// two FixedRateSchedulers (the worst-case and adversarial environments)
// runs its typed instance; any other session runs Simulator.
#pragma once

#include <memory>
#include <optional>
#include <utility>

#include "rstp/channel/channel.h"
#include "rstp/fault/fault.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/host_timing.h"
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
      : transmitter_(with_host_timer(std::move(instance.transmitter), config.host_timer)),
        receiver_(with_host_timer(std::move(instance.receiver), config.host_timer)),
        transmitter_sched_(with_host_timer(std::move(transmitter_sched), config.host_timer)),
        receiver_sched_(with_host_timer(std::move(receiver_sched), config.host_timer)),
        injector_(std::move(injector)),
        channel_(config.params.d, with_host_timer(std::move(policy), config.host_timer),
                 min_delay),
        config_(config),
        input_bits_(instance.input_bits) {
    channel_.set_fault_injector(injector_.get());
    if (config.host_timer == nullptr && dynamic_cast<FixedRateScheduler*>(&*transmitter_sched_) &&
        dynamic_cast<FixedRateScheduler*>(&*receiver_sched_)) {
      typed_ = instance.kind;
    }
  }

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] channel::Channel& channel() { return channel_; }

  /// Runs the session to quiescence or the event cap (Simulator::run), on
  /// the instance the constructor picked. May be called once.
  [[nodiscard]] RunResult run();

 private:
  /// Runs the parts on BasicSimulator<T, R, S>; they must have those types.
  template <class T, class R, class S = FixedRateScheduler>
  [[nodiscard]] RunResult run_on();

  std::unique_ptr<ioa::Automaton> transmitter_;
  std::unique_ptr<ioa::Automaton> receiver_;
  std::unique_ptr<StepScheduler> transmitter_sched_;
  std::unique_ptr<StepScheduler> receiver_sched_;
  std::unique_ptr<fault::FaultInjector> injector_;
  channel::Channel channel_;
  SimConfig config_;
  std::size_t input_bits_;
  /// The pair whose typed instance run() drives; unset for Simulator.
  std::optional<protocols::ProtocolKind> typed_;
  bool ran_ = false;
};

}  // namespace rstp::sim
