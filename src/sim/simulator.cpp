#include "rstp/sim/simulator.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "rstp/common/check.h"

namespace rstp::sim {

namespace {

using ioa::Action;
using ioa::ActionKind;
using ioa::Actor;
using ioa::ProcessId;

[[nodiscard]] std::size_t index_of(ProcessId id) { return static_cast<std::size_t>(id); }

}  // namespace

Simulator::Simulator(ioa::Automaton& transmitter, ioa::Automaton& receiver,
                     channel::Channel& chan, StepScheduler& transmitter_sched,
                     StepScheduler& receiver_sched, SimConfig config)
    : channel_(&chan), config_(config) {
  config_.params.validate();
  if (config_.transmitter_params.has_value()) config_.transmitter_params->validate();
  if (config_.receiver_params.has_value()) config_.receiver_params->validate();
  RSTP_CHECK(chan.empty(), "simulator requires an initially empty channel");
  RSTP_CHECK_EQ(chan.max_delay().ticks(), config_.params.d.ticks(),
                "channel delay bound must equal the model's d");
  procs_[index_of(ProcessId::Transmitter)] = ProcessState{
      &transmitter, &transmitter_sched, config_.transmitter_params.value_or(config_.params)};
  procs_[index_of(ProcessId::Receiver)] = ProcessState{
      &receiver, &receiver_sched, config_.receiver_params.value_or(config_.params)};
  record_events_ = config_.record_trace || config_.observer != nullptr;
  counter_sources_[index_of(ProcessId::Transmitter)] = transmitter.counter_source();
  counter_sources_[index_of(ProcessId::Receiver)] = receiver.counter_source();
}

void Simulator::throw_out_of_law(Duration value, const core::TimingParams& law, bool first) {
  std::ostringstream os;
  if (first) {
    os << "scheduler first offset " << value << " outside [0, c2=" << law.c2 << "]";
  } else {
    os << "scheduler gap " << value << " outside [c1=" << law.c1 << ", c2=" << law.c2 << "]";
  }
  throw ModelError(os.str());
}

void Simulator::deliver_due(RunResult& result, Time now) {
  for (const channel::InFlightPacket& flight : channel_->collect_due(now)) {
    const ProcessId to = flight.packet.destination();
    ProcessState& ps = procs_[index_of(to)];
    ps.quiescent = ps.automaton->deliver(flight.packet);
    // The channel knows both endpoints of every flight, so delivery delay is
    // measured exactly — no post-hoc trace matching involved.
    const Duration delay = flight.deliver_at - flight.sent_at;
    if (to == ProcessId::Receiver) {
      ++result.metrics.counters.data_recvs;
      result.metrics.data_delay.record(delay.ticks());
    } else {
      ++result.metrics.counters.ack_recvs;
      result.metrics.ack_delay.record(delay.ticks());
    }
    record(result, flight.deliver_at, Actor::Channel, Action::recv(flight.packet), [&] {
      return EventContext{.sent_at = flight.sent_at,
                          .send_seq = flight.send_seq,
                          .counters = counter_sources_[index_of(to)]};
    });
    // A stopped process can be re-enabled by input; let it resume stepping.
    if (ps.stopped) {
      if (ps.automaton->enabled_local().has_value()) {
        ps.stopped = false;
        ps.next_step = flight.deliver_at + validated_gap(ps, ps.steps_taken + 1);
      }
    }
  }
}

void Simulator::take_process_step(RunResult& result, ProcessState& ps, ProcessId id) {
  ioa::LocalStep taken;
  if (!ps.automaton->step(taken)) {
    ps.stopped = true;
    return;
  }
  const Action& action = taken.action;
  ps.quiescent = taken.quiescent;
  obs::RunCounters& counters = result.metrics.counters;
  const bool first_step = ps.steps_taken == 0;
  // Zero on the process's first step; a real gap is at least c1 >= 1.
  const Duration gap = first_step ? Duration{0} : ps.next_step - ps.last_step_time;
  if (id == ProcessId::Transmitter) {
    ++counters.transmitter_steps;
    if (action.kind == ActionKind::Internal) ++counters.transmitter_internal_steps;
    if (!first_step) result.metrics.transmitter_gap.record(gap.ticks());
  } else {
    ++counters.receiver_steps;
    if (action.kind == ActionKind::Internal) ++counters.receiver_internal_steps;
    if (!first_step) result.metrics.receiver_gap.record(gap.ticks());
  }
  ps.last_step_time = ps.next_step;
  ++ps.steps_taken;
  const bool send = action.kind == ActionKind::Send;
  if (send) {
    RSTP_CHECK_EQ(static_cast<int>(action.packet.source()), static_cast<int>(id),
                  "automaton sent a packet with the wrong direction tag");
  }
  record(result, ps.next_step, ioa::actor_of(id), action, [&] {
    // total_sent() is the seq the channel will assign to this send.
    return EventContext{.gap = gap,
                        .send_seq = send ? channel_->total_sent() : 0,
                        .counters = counter_sources_[index_of(id)]};
  });
  if (send) {
    if (id == ProcessId::Transmitter) {
      ++counters.data_sends;
      result.last_transmitter_send = ps.next_step;
    } else {
      ++counters.ack_sends;
    }
    channel_->send(action.packet, ps.next_step);
  }
  ps.next_step = ps.next_step + validated_gap(ps, ps.steps_taken);
}

void Simulator::start() {
  RSTP_CHECK(!ran_, "Simulator::start/run may be called once");
  ran_ = true;

  // Histogram windows come from the model: delivery delays live in [0, d],
  // realized step gaps in [c1, c2] (a stop/resume gap clamps into the top
  // bucket; min()/max() keep the true extremes).
  const std::int64_t d = config_.params.d.ticks();
  ProcessState& t = procs_[index_of(ProcessId::Transmitter)];
  ProcessState& r = procs_[index_of(ProcessId::Receiver)];
  result_.metrics.data_delay = obs::Histogram(0, d);
  result_.metrics.ack_delay = obs::Histogram(0, d);
  result_.metrics.transmitter_gap = obs::Histogram(0, t.law.c2.ticks());
  result_.metrics.receiver_gap = obs::Histogram(0, r.law.c2.ticks());
  if (config_.record_trace) {
    // Executions are usually far longer than this; one up-front chunk keeps
    // the first reallocation doublings off the hot path without committing
    // max_events worth of memory.
    result_.trace.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(config_.max_events,
                                                                           4096)));
  }
  t.next_step = Time::zero() + validated_first_offset(t);
  r.next_step = Time::zero() + validated_first_offset(r);
  t.quiescent = t.automaton->quiescent();
  r.quiescent = r.automaton->quiescent();
}

bool Simulator::finished() const {
  if (result_.metrics.counters.events >= config_.max_events) return true;
  // Global quiescence: nothing in flight and both processes have nothing
  // (non-trivial) left to do.
  const ProcessState& t = procs_[index_of(ProcessId::Transmitter)];
  const ProcessState& r = procs_[index_of(ProcessId::Receiver)];
  const bool t_idle = t.stopped || t.quiescent;
  const bool r_idle = r.stopped || r.quiescent;
  return channel_->empty() && t_idle && r_idle;
}

bool Simulator::compute_next_instant() {
  if (finished()) return false;
  // Earliest pending instant among deliveries and process steps; at equal
  // times deliveries go first, then the transmitter, then the receiver: a
  // later source takes over only when it is strictly earlier.
  const ProcessState& t = procs_[index_of(ProcessId::Transmitter)];
  const ProcessState& r = procs_[index_of(ProcessId::Receiver)];
  Time now = Time::max();
  if (!channel_->empty()) {
    now = channel_->front_delivery_time();
    due_ = Due::Delivery;
  }
  if (!t.stopped && t.next_step < now) {
    now = t.next_step;
    due_ = Due::Transmitter;
  }
  if (!r.stopped && r.next_step < now) {
    now = r.next_step;
    due_ = Due::Receiver;
  }
  RSTP_CHECK(now != Time::max(), "no pending events but not quiescent");
  instant_ = now;
  return true;
}

void Simulator::advance() {
  RSTP_CHECK(pending(), "advance() past the end of the run");
  instant_valid_ = false;
  switch (due_) {
    case Due::Delivery:
      deliver_due(result_, instant_);
      return;
    case Due::Transmitter:
      take_process_step(result_, procs_[index_of(ProcessId::Transmitter)],
                        ProcessId::Transmitter);
      return;
    case Due::Receiver:
      take_process_step(result_, procs_[index_of(ProcessId::Receiver)], ProcessId::Receiver);
      return;
  }
  RSTP_UNREACHABLE("event selection failed");
}

RunResult Simulator::take_result() {
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

RunResult Simulator::run() {
  start();
  while (next_instant().has_value()) {
    advance();
  }
  return take_result();
}

}  // namespace rstp::sim
