// The member definitions of sim::BasicSimulator (sim/simulator.h). Only the
// translation units that instantiate it include this: sim/simulator.cpp for
// Simulator, and each protocol's .cpp for its typed instance.
#pragma once

#include <algorithm>
#include <utility>

#include "rstp/common/check.h"
#include "rstp/sim/simulator.h"

namespace rstp::sim {

template <class T, class R, class S>
BasicSimulator<T, R, S>::BasicSimulator(T& transmitter, R& receiver, channel::Channel& chan,
                                        S& transmitter_sched, S& receiver_sched,
                                        SimConfig config)
    : channel_(&chan),
      config_(config),
      transmitter_{&transmitter, &transmitter_sched,
                   config.transmitter_params.value_or(config.params)},
      receiver_{&receiver, &receiver_sched, config.receiver_params.value_or(config.params)},
      counter_sources_{transmitter.counter_source(), receiver.counter_source()},
      record_events_(config.record_trace || config.observer != nullptr) {
  config_.params.validate();
  if (config_.transmitter_params.has_value()) config_.transmitter_params->validate();
  if (config_.receiver_params.has_value()) config_.receiver_params->validate();
  RSTP_CHECK(chan.empty(), "simulator requires an initially empty channel");
  RSTP_CHECK_EQ(chan.max_delay().ticks(), config_.params.d.ticks(),
                "channel delay bound must equal the model's d");
}

template <class T, class R, class S>
template <ioa::ProcessId kTo, class A>
void BasicSimulator<T, R, S>::deliver(ProcessState<A>& ps, const channel::InFlightPacket& flight) {
  constexpr bool kToReceiver = kTo == ioa::ProcessId::Receiver;
  ps.quiescent = ps.automaton->deliver(flight.packet);
  // The channel knows both endpoints of every flight, so delivery delay is
  // measured exactly — no post-hoc trace matching involved.
  const Duration delay = flight.deliver_at - flight.sent_at;
  obs::RunMetrics& metrics = result_.metrics;
  ++(kToReceiver ? metrics.counters.data_recvs : metrics.counters.ack_recvs);
  (kToReceiver ? metrics.data_delay : metrics.ack_delay).record(delay.ticks());
  record(flight.deliver_at, ioa::Actor::Channel, ioa::Action::recv(flight.packet), [&] {
    return EventContext{.sent_at = flight.sent_at,
                        .send_seq = flight.send_seq,
                        .counters = counter_sources_[static_cast<std::size_t>(kTo)]};
  });
  // A stopped process can be re-enabled by input; let it resume stepping.
  if (ps.stopped && ps.automaton->enabled_local().has_value()) {
    ps.stopped = false;
    ps.next_step = flight.deliver_at + validated_gap(ps, steps_taken<kTo>() + 1);
  }
}

template <class T, class R, class S>
template <ioa::ProcessId kId, class A>
void BasicSimulator<T, R, S>::take_process_step(ProcessState<A>& ps) {
  constexpr bool kTransmitter = kId == ioa::ProcessId::Transmitter;
  ioa::LocalStep taken;
  if (!ps.automaton->step(taken)) {
    ps.stopped = true;
    return;
  }
  const ioa::Action& action = taken.action;
  ps.quiescent = taken.quiescent;
  obs::RunCounters& counters = result_.metrics.counters;
  std::uint64_t& steps = steps_taken<kId>();
  const bool first_step = steps == 0;
  // Zero on the process's first step; a real gap is at least c1 >= 1.
  const Duration gap = first_step ? Duration{0} : ps.next_step - ps.last_step_time;
  ++steps;
  if (action.kind == ioa::ActionKind::Internal) {
    ++(kTransmitter ? counters.transmitter_internal_steps : counters.receiver_internal_steps);
  }
  if (!first_step) {
    (kTransmitter ? result_.metrics.transmitter_gap : result_.metrics.receiver_gap)
        .record(gap.ticks());
  }
  ps.last_step_time = ps.next_step;
  const bool send = action.kind == ioa::ActionKind::Send;
  if (send) {
    RSTP_CHECK_EQ(static_cast<int>(action.packet.source()), static_cast<int>(kId),
                  "automaton sent a packet with the wrong direction tag");
  }
  record(ps.next_step, ioa::actor_of(kId), action, [&] {
    // total_sent() is the seq the channel will assign to this send.
    return EventContext{.gap = gap,
                        .send_seq = send ? channel_->total_sent() : 0,
                        .counters = counter_sources_[static_cast<std::size_t>(kId)]};
  });
  if (send) {
    if constexpr (kTransmitter) {
      ++counters.data_sends;
      result_.last_transmitter_send = ps.next_step;
    } else {
      ++counters.ack_sends;
    }
    channel_->send(action.packet, ps.next_step);
  }
  ps.next_step = ps.next_step + validated_gap(ps, steps);
}

template <class T, class R, class S>
void BasicSimulator<T, R, S>::start() {
  RSTP_CHECK(!ran_, "Simulator::start/run may be called once");
  ran_ = true;

  // Histogram windows come from the model: delivery delays live in [0, d],
  // realized step gaps in [c1, c2] (a stop/resume gap clamps into the top
  // bucket; min()/max() keep the true extremes).
  const std::int64_t d = config_.params.d.ticks();
  result_.metrics.data_delay = obs::Histogram(0, d);
  result_.metrics.ack_delay = obs::Histogram(0, d);
  result_.metrics.transmitter_gap = obs::Histogram(0, transmitter_.law.c2.ticks());
  result_.metrics.receiver_gap = obs::Histogram(0, receiver_.law.c2.ticks());
  if (config_.record_trace) {
    // Executions are usually far longer than this; one up-front chunk keeps
    // the first reallocation doublings off the hot path without committing
    // max_events worth of memory.
    result_.trace.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(config_.max_events,
                                                                           4096)));
  }
  transmitter_.next_step = Time::zero() + validated_first_offset(transmitter_);
  receiver_.next_step = Time::zero() + validated_first_offset(receiver_);
  transmitter_.quiescent = transmitter_.automaton->quiescent();
  receiver_.quiescent = receiver_.automaton->quiescent();
}

template <class T, class R, class S>
bool BasicSimulator<T, R, S>::finished() const {
  if (result_.metrics.counters.events >= config_.max_events) return true;
  // Global quiescence: nothing in flight and both processes have nothing
  // (non-trivial) left to do.
  const bool t_idle = transmitter_.stopped || transmitter_.quiescent;
  const bool r_idle = receiver_.stopped || receiver_.quiescent;
  return channel_->empty() && t_idle && r_idle;
}

template <class T, class R, class S>
bool BasicSimulator<T, R, S>::compute_next_instant() {
  if (finished()) return false;
  // Earliest pending instant among deliveries and process steps; at equal
  // times deliveries go first, then the transmitter, then the receiver: a
  // later source takes over only when it is strictly earlier.
  Time now = Time::max();
  if (!channel_->empty()) {
    now = channel_->front_delivery_time();
    due_ = Due::Delivery;
  }
  if (!transmitter_.stopped && transmitter_.next_step < now) {
    now = transmitter_.next_step;
    due_ = Due::Transmitter;
  }
  if (!receiver_.stopped && receiver_.next_step < now) {
    now = receiver_.next_step;
    due_ = Due::Receiver;
  }
  RSTP_CHECK(now != Time::max(), "no pending events but not quiescent");
  instant_ = now;
  return true;
}

template <class T, class R, class S>
void BasicSimulator<T, R, S>::advance() {
  RSTP_CHECK(pending(), "advance() past the end of the run");
  instant_valid_ = false;
  switch (due_) {
    case Due::Delivery:
      for (const channel::InFlightPacket& flight : channel_->collect_due(instant_)) {
        if (flight.packet.destination() == ioa::ProcessId::Receiver) {
          deliver<ioa::ProcessId::Receiver>(receiver_, flight);
        } else {
          deliver<ioa::ProcessId::Transmitter>(transmitter_, flight);
        }
      }
      return;
    case Due::Transmitter:
      take_process_step<ioa::ProcessId::Transmitter>(transmitter_);
      return;
    case Due::Receiver:
      take_process_step<ioa::ProcessId::Receiver>(receiver_);
      return;
  }
  RSTP_UNREACHABLE("event selection failed");
}

template <class T, class R, class S>
RunResult BasicSimulator<T, R, S>::take_result() {
  RSTP_CHECK(ran_ && !taken_, "take_result requires a finished, untaken run");
  RSTP_CHECK(finished(), "take_result before the run is over");
  taken_ = true;
  // The loop in run() exits via the cap check before the quiescence check,
  // so a run that hits the cap reports quiescent=false even if the final
  // dispatch happened to reach quiescence too.
  obs::RunCounters& counters = result_.metrics.counters;
  result_.quiescent = counters.events < config_.max_events;
  // Fold in the automata's own counters (Automaton::counter_source()).
  // Automata without a CounterSource simply contribute nothing.
  for (const obs::CounterSource* source : counter_sources_) {
    if (source != nullptr) counters.protocol += source->protocol_counters();
  }
  // Channel-level injected faults (empty without an injector). A drop is a
  // packet the automaton sent that never entered flight.
  result_.faults = channel_->fault_log();
  for (const fault::FaultEvent& f : result_.faults) {
    if (f.kind == fault::FaultKind::Drop) ++counters.dropped;
  }
  // RunResult's flat counts mirror RunCounters, which alone count per event.
  result_.event_count = counters.events;
  result_.transmitter_steps = counters.transmitter_steps;
  result_.receiver_steps = counters.receiver_steps;
  result_.transmitter_sends = counters.data_sends;
  result_.receiver_sends = counters.ack_sends;
  result_.dropped_packets = counters.dropped;
  if (config_.observer != nullptr) {
    config_.observer->on_finish(result_.end_time, result_.faults);
  }
  return std::move(result_);
}

template <class T, class R, class S>
RunResult BasicSimulator<T, R, S>::run() {
  start();
  while (next_instant().has_value()) {
    advance();
  }
  return take_result();
}

}  // namespace rstp::sim

/// Instantiates protocol P's typed instance, over PTransmitter, PReceiver
/// and FixedRateScheduler; each protocol's .cpp does, at global scope.
#define RSTP_TYPED_SIMULATOR(P)                                                       \
  template class rstp::sim::BasicSimulator<rstp::protocols::P##Transmitter,           \
                                           rstp::protocols::P##Receiver,              \
                                           rstp::sim::FixedRateScheduler>
