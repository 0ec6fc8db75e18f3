// Tests for the discrete-event simulator, using purpose-built micro-automata
// (exercising the ioa::Automaton interface directly, independent of the
// shipped protocols).
#include "rstp/sim/simulator.h"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rstp/channel/policies.h"
#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/core/effort.h"
#include "rstp/core/verify.h"
#include "rstp/fault/fault.h"
#include "rstp/obs/host_timer.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/session.h"
#include "rstp/sim/simulator_impl.h"

namespace rstp::sim {
namespace {

using ioa::Action;
using ioa::ActionKind;
using ioa::Actor;
using ioa::Packet;
using ioa::ProcessId;

/// Sends payloads 0..n-1, one per step, then stops. With `await_acks` it
/// also stops after every send until that send's ack arrives, so each of its
/// steps after the first follows a re-enabling input.
class CounterSender final : public ioa::Automaton {
 public:
  explicit CounterSender(std::uint32_t n, bool await_acks = false)
      : n_(n), await_acks_(await_acks) {}
  [[nodiscard]] std::string_view name() const override { return "counter_sender"; }
  [[nodiscard]] std::optional<Action> enabled_local() const override {
    if (sent_ < n_ && (!await_acks_ || acks_ == sent_)) {
      return Action::send(Packet::to_receiver(sent_));
    }
    return std::nullopt;
  }
  void apply(const Action& action) override {
    if (action.kind == ActionKind::Recv) {
      ++acks_;
      return;
    }
    RSTP_CHECK(enabled_local().has_value() && *enabled_local() == action, "not enabled");
    ++sent_;
  }
  [[nodiscard]] bool accepts_input(const Action& a) const override {
    return a.kind == ActionKind::Recv &&
           a.packet.direction == Packet::Direction::ReceiverToTransmitter;
  }
  [[nodiscard]] bool quiescent() const override { return sent_ >= n_; }
  [[nodiscard]] std::string snapshot() const override {
    std::ostringstream os;
    os << "cs " << sent_ << ' ' << acks_;
    return os.str();
  }
  [[nodiscard]] std::unique_ptr<Automaton> clone() const override {
    return std::make_unique<CounterSender>(*this);
  }
  [[nodiscard]] std::uint32_t acks() const { return acks_; }

 private:
  std::uint32_t n_;
  bool await_acks_;
  std::uint32_t sent_ = 0;
  std::uint32_t acks_ = 0;
};

/// Records arrivals; optionally echoes an ack per arrival; always idles.
class EchoReceiver final : public ioa::Automaton {
 public:
  explicit EchoReceiver(bool echo) : echo_(echo) {}
  [[nodiscard]] std::string_view name() const override { return "echo_receiver"; }
  [[nodiscard]] std::optional<Action> enabled_local() const override {
    if (pending_acks_ > 0) return Action::send(Packet::to_transmitter(0));
    return Action::internal(1);
  }
  void apply(const Action& action) override {
    if (action.kind == ActionKind::Recv) {
      received_.push_back(action.packet.payload);
      if (echo_) ++pending_acks_;
      return;
    }
    if (action.kind == ActionKind::Send) {
      --pending_acks_;
    }
  }
  [[nodiscard]] bool accepts_input(const Action& a) const override {
    return a.kind == ActionKind::Recv &&
           a.packet.direction == Packet::Direction::TransmitterToReceiver;
  }
  [[nodiscard]] bool quiescent() const override { return pending_acks_ == 0; }
  [[nodiscard]] std::string snapshot() const override {
    std::ostringstream os;
    os << "er " << received_.size() << ' ' << pending_acks_;
    return os.str();
  }
  [[nodiscard]] std::unique_ptr<Automaton> clone() const override {
    return std::make_unique<EchoReceiver>(*this);
  }
  [[nodiscard]] const std::vector<std::uint32_t>& received() const { return received_; }

 private:
  bool echo_;
  std::vector<std::uint32_t> received_;
  int pending_acks_ = 0;
};

/// Idles forever and is quiescent only once a packet has arrived: its
/// quiescence changes through an input alone, never through its own steps.
class AwaitingReceiver final : public ioa::Automaton {
 public:
  [[nodiscard]] std::string_view name() const override { return "awaiting_receiver"; }
  [[nodiscard]] std::optional<Action> enabled_local() const override {
    return Action::internal(1);
  }
  void apply(const Action& action) override {
    if (action.kind == ActionKind::Recv) ++arrivals_;
  }
  [[nodiscard]] bool accepts_input(const Action& a) const override {
    return a.kind == ActionKind::Recv &&
           a.packet.direction == Packet::Direction::TransmitterToReceiver;
  }
  [[nodiscard]] bool quiescent() const override { return arrivals_ > 0; }
  [[nodiscard]] std::string snapshot() const override {
    return "ar " + std::to_string(arrivals_);
  }
  [[nodiscard]] std::unique_ptr<Automaton> clone() const override {
    return std::make_unique<AwaitingReceiver>(*this);
  }

 private:
  std::uint32_t arrivals_ = 0;
};

/// Forwards every call to an owned automaton and its counters through an
/// obs::CounterSource base of its own, outside the protocol hierarchy and
/// without overriding counter_source(), step() or deliver(): the simulator
/// finds the counters through the default's dynamic_cast, takes each step
/// through the default's enabled_local/apply/quiescent composition and each
/// delivery through the default's accepts_input/apply/quiescent one, as it
/// does for bench_layers' decorator. It counts the apply() calls those
/// defaults make.
class ForwardingAutomaton final : public ioa::Automaton, public obs::CounterSource {
 public:
  ForwardingAutomaton(std::unique_ptr<ioa::Automaton> inner, const obs::CounterSource& counters)
      : inner_(std::move(inner)), counters_(counters) {}
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] std::optional<Action> enabled_local() const override {
    return inner_->enabled_local();
  }
  void apply(const Action& action) override {
    ++(action.kind == ActionKind::Recv ? input_applies_ : local_applies_);
    inner_->apply(action);
  }
  [[nodiscard]] bool accepts_input(const Action& a) const override {
    return inner_->accepts_input(a);
  }
  [[nodiscard]] bool quiescent() const override { return inner_->quiescent(); }
  [[nodiscard]] std::string snapshot() const override { return inner_->snapshot(); }
  [[nodiscard]] std::unique_ptr<Automaton> clone() const override { return inner_->clone(); }
  [[nodiscard]] const obs::ProtocolCounters& protocol_counters() const override {
    return counters_.protocol_counters();
  }
  /// apply() calls with an input (deliveries) and with a local action.
  [[nodiscard]] std::uint64_t input_applies() const { return input_applies_; }
  [[nodiscard]] std::uint64_t local_applies() const { return local_applies_; }

 private:
  std::unique_ptr<ioa::Automaton> inner_;
  const obs::CounterSource& counters_;
  std::uint64_t input_applies_ = 0;
  std::uint64_t local_applies_ = 0;
};

/// Adapts a callable to the observer hook's per-event callback.
template <typename F>
class EventObserver final : public SimObserver {
 public:
  explicit EventObserver(F fn) : fn_(std::move(fn)) {}
  void on_event(const ioa::TimedEvent& event, const EventContext&) override { fn_(event); }

 private:
  F fn_;
};

/// Keeps every on_event call: the event and its context.
class ContextRecorder final : public SimObserver {
 public:
  void on_event(const ioa::TimedEvent& event, const EventContext& context) override {
    calls.emplace_back(event, context);
  }

  std::vector<std::pair<ioa::TimedEvent, EventContext>> calls;
};

/// The text of the ModelError `run` throws; empty, and a test failure, when
/// it throws none.
template <typename F>
std::string model_error_text(F run) {
  try {
    (void)run();
  } catch (const ModelError& e) {
    return e.what();
  }
  ADD_FAILURE() << "the run did not throw a ModelError";
  return {};
}

SimConfig config_for(const core::TimingParams& params) {
  SimConfig c;
  c.params = params;
  return c;
}

TEST(Simulator, DefaultDeliverTakesOnlyInputsAndReportsQuiescence) {
  // EchoReceiver's apply() takes anything; the default deliver() checks
  // accepts_input() first, as the simulator did before each delivery.
  EchoReceiver receiver{true};
  EXPECT_THROW(receiver.deliver(Packet::to_transmitter(0)), ContractViolation);
  EXPECT_EQ(receiver.snapshot(), "er 0 0");
  EXPECT_FALSE(receiver.deliver(Packet::to_receiver(4)));  // one ack pending
  EXPECT_EQ(receiver.received(), (std::vector<std::uint32_t>{4}));
}

TEST(Simulator, DeliversEverythingAndQuiesces) {
  const auto params = core::TimingParams::make(1, 1, 3);
  CounterSender sender{5};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(receiver.received(), (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(result.transmitter_sends, 5u);
  EXPECT_EQ(result.receiver_sends, 0u);
  ASSERT_TRUE(result.last_transmitter_send.has_value());
  // Steps at 0,1,2,3,4 → last send at 4; last delivery at 4+3=7.
  EXPECT_EQ(*result.last_transmitter_send, at_tick(4));
  EXPECT_EQ(result.end_time, at_tick(7));
}

TEST(Simulator, TraceHasDeterministicEventOrdering) {
  const auto params = core::TimingParams::make(1, 1, 1);
  CounterSender sender{2};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  const RunResult result = sim.run();
  // With zero delay: at t=0 the transmitter's send precedes the delivery
  // (deliveries-first applies only to packets already in flight), and the
  // delivery precedes the receiver's step — all at tick 0.
  const auto& ev = result.trace.events();
  ASSERT_GE(ev.size(), 3u);
  EXPECT_EQ(ev[0].actor, Actor::Transmitter);
  EXPECT_EQ(ev[0].action.kind, ActionKind::Send);
  EXPECT_EQ(ev[1].actor, Actor::Channel);
  EXPECT_EQ(ev[1].action.kind, ActionKind::Recv);
  EXPECT_EQ(ev[2].actor, Actor::Receiver);
  EXPECT_EQ(ev[0].time, at_tick(0));
  EXPECT_EQ(ev[2].time, at_tick(0));
}

TEST(Simulator, InFlightDeliveryPrecedesBothStepsAtOneInstant) {
  // The packet sent at 0 is due at 1 (delay d = 1), the instant both
  // processes step again: the delivery goes first, then A_t, then A_r.
  const auto params = core::TimingParams::make(1, 1, 1);
  CounterSender sender{2};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  std::vector<std::pair<Actor, ActionKind>> at_one;
  for (const ioa::TimedEvent& e : result.trace.events()) {
    if (e.time == at_tick(1)) at_one.emplace_back(e.actor, e.action.kind);
  }
  const std::vector<std::pair<Actor, ActionKind>> expected = {
      {Actor::Channel, ActionKind::Recv},
      {Actor::Transmitter, ActionKind::Send},
      {Actor::Receiver, ActionKind::Internal}};
  EXPECT_EQ(at_one, expected);
}

TEST(Simulator, InputAloneMakesAProcessQuiescent) {
  // A_t sends once at 0 and stops at 1; A_r idles every tick until the
  // packet arrives at 3 (delay d = 3). That delivery alone makes A_r
  // quiescent, so the run ends on it, before A_r's own step at 3.
  const auto params = core::TimingParams::make(1, 1, 3);
  CounterSender sender{1};
  AwaitingReceiver receiver;
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  cfg.max_events = 100;
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  // send@0, idle@0, idle@1, idle@2, recv@3.
  EXPECT_EQ(result.event_count, 5u);
  EXPECT_EQ(result.end_time, at_tick(3));
  EXPECT_EQ(result.receiver_steps, 3u);
  ASSERT_FALSE(result.trace.events().empty());
  EXPECT_EQ(result.trace.events().back().actor, Actor::Channel);
}

TEST(Simulator, AcksFlowBackToTransmitter) {
  const auto params = core::TimingParams::make(1, 2, 4);
  CounterSender sender{3};
  EchoReceiver receiver{true};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(sender.acks(), 3u);
  EXPECT_EQ(result.receiver_sends, 3u);
}

TEST(Simulator, SlowSchedulerStretchesTime) {
  const auto params = core::TimingParams::make(1, 5, 5);
  CounterSender sender{4};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler ts{params.c2};  // steps every 5
  FixedRateScheduler rs{params.c2};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  const RunResult result = sim.run();
  ASSERT_TRUE(result.last_transmitter_send.has_value());
  EXPECT_EQ(*result.last_transmitter_send, at_tick(15));  // 0,5,10,15
}

TEST(Simulator, OutOfBandSchedulerIsModelError) {
  const auto params = core::TimingParams::make(2, 3, 5);
  CounterSender sender{2};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler bad{Duration{1}};  // gap 1 < c1=2
  FixedRateScheduler ok{params.c1};
  Simulator sim{sender, receiver, chan, bad, ok, config_for(params)};
  EXPECT_THROW((void)sim.run(), ModelError);
}

TEST(Simulator, FirstOffsetBeyondC2IsModelError) {
  const auto params = core::TimingParams::make(1, 2, 3);
  CounterSender sender{1};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler bad{params.c1, Duration{3}};  // first step at 3 > c2=2
  FixedRateScheduler ok{params.c1};
  Simulator sim{sender, receiver, chan, bad, ok, config_for(params)};
  EXPECT_THROW((void)sim.run(), ModelError);
}

TEST(Simulator, OutOfLawTextsNameTheValueAndTheLaw) {
  const auto params = core::TimingParams::make(2, 3, 5);
  CounterSender sender{2};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler ok{params.c1};
  FixedRateScheduler slow{Duration{4}};  // gap 4 > c2=3
  Simulator gap_sim{sender, receiver, chan, ok, slow, config_for(params)};
  EXPECT_EQ(model_error_text([&] { return gap_sim.run(); }),
            "scheduler gap 4t outside [c1=2t, c2=3t]");

  CounterSender late_sender{1};
  EchoReceiver late_receiver{false};
  channel::Channel late_chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler late{params.c1, Duration{4}};  // first step at 4 > c2=3
  Simulator first_sim{late_sender, late_receiver, late_chan, late, ok, config_for(params)};
  EXPECT_EQ(model_error_text([&] { return first_sim.run(); }),
            "scheduler first offset 4t outside [0, c2=3t]");
}

TEST(Simulator, SessionKeepsTheStepLawCheckForEveryProtocol) {
  // A worst-case session whose fixed-rate transmitter steps faster than c1:
  // every protocol's session rejects it with the simulator's text.
  const auto params = core::TimingParams::make(2, 3, 6);
  for (const protocols::ProtocolKind kind : protocols::kAllProtocolKinds) {
    SCOPED_TRACE(std::string{protocols::to_string(kind)});
    protocols::ProtocolConfig cfg;
    cfg.params = params;
    cfg.input = core::make_random_input(8, 5);
    cfg.k = protocols::alphabet_for(kind, 4, cfg.input.size());
    Session session{protocols::make_protocol(kind, cfg), make_fixed_rate(Duration{1}),
                    make_fixed_rate(params.c2), channel::make_max_delay(),
                    config_for(params)};
    EXPECT_EQ(model_error_text([&] { return session.run(); }),
              "scheduler gap 1t outside [c1=2t, c2=3t]");
  }
}

TEST(Simulator, DropInjectionLosesPacketButSimStillTerminates) {
  const auto params = core::TimingParams::make(1, 1, 2);
  CounterSender sender{1};
  EchoReceiver receiver{true};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  // Drop the only data packet: channel seq 0.
  fault::SeededFaultInjector injector{0, fault::FaultRates{},
                                      {fault::PinnedFault{0, fault::FaultKind::Drop}}};
  chan.set_fault_injector(&injector);
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  cfg.max_events = 100;
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);  // sender quiesces even though packet lost
  EXPECT_EQ(result.dropped_packets, 1u);
  EXPECT_TRUE(receiver.received().empty());
}

TEST(Simulator, PerProcessTimingLawsValidatedSeparately) {
  // Generalized model: the transmitter may run a law the receiver's would
  // reject. transmitter [1,2], receiver [3,5], d = 6.
  const auto envelope = core::TimingParams::make(1, 5, 6);
  CounterSender sender{3};
  EchoReceiver receiver{false};
  channel::Channel chan{envelope.d, channel::make_zero_delay()};
  FixedRateScheduler ts{Duration{2}};  // legal for t [1,2], illegal for r [3,5]
  FixedRateScheduler rs{Duration{4}};  // legal for r [3,5], illegal for t [1,2]
  SimConfig cfg = config_for(envelope);
  cfg.transmitter_params = core::TimingParams::make(1, 2, 6);
  cfg.receiver_params = core::TimingParams::make(3, 5, 6);
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(receiver.received().size(), 3u);
}

TEST(Simulator, PerProcessLawViolationCaught) {
  const auto envelope = core::TimingParams::make(1, 5, 6);
  CounterSender sender{2};
  EchoReceiver receiver{false};
  channel::Channel chan{envelope.d, channel::make_zero_delay()};
  FixedRateScheduler ts{Duration{4}};  // violates the transmitter's [1,2]
  FixedRateScheduler rs{Duration{4}};
  SimConfig cfg = config_for(envelope);
  cfg.transmitter_params = core::TimingParams::make(1, 2, 6);
  cfg.receiver_params = core::TimingParams::make(3, 5, 6);
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  EXPECT_THROW((void)sim.run(), ModelError);
}

TEST(Simulator, MismatchedChannelDelayRejected) {
  const auto params = core::TimingParams::make(1, 1, 3);
  CounterSender sender{1};
  EchoReceiver receiver{false};
  channel::Channel chan{Duration{4}, channel::make_zero_delay()};  // d mismatch
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  EXPECT_THROW(Simulator(sender, receiver, chan, ts, rs, config_for(params)),
               ContractViolation);
}

TEST(Simulator, RunIsSingleShot) {
  const auto params = core::TimingParams::make(1, 1, 1);
  CounterSender sender{1};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  Simulator sim{sender, receiver, chan, ts, rs, config_for(params)};
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), ContractViolation);
}

/// One simulator with its parts, so a test can build identical twins.
struct EchoRig {
  explicit EchoRig(std::uint64_t max_events = 10'000'000, SimObserver* observer = nullptr)
      : params(core::TimingParams::make(1, 2, 4)),
        chan(params.d, channel::make_max_delay()),
        ts(params.c1),
        rs(params.c2),
        sim(sender, receiver, chan, ts, rs, [&] {
          SimConfig c = config_for(params);
          c.max_events = max_events;
          c.observer = observer;
          return c;
        }()) {}

  core::TimingParams params;
  CounterSender sender{6};
  EchoReceiver receiver{true};
  channel::Channel chan;
  FixedRateScheduler ts;
  FixedRateScheduler rs;
  Simulator sim;
};

TEST(Simulator, NextInstantBeforeStartIsContractViolation) {
  EchoRig rig;
  EXPECT_THROW((void)rig.sim.next_instant(), ContractViolation);
  EXPECT_THROW(rig.sim.advance(), ContractViolation);
}

TEST(Simulator, NextInstantIsStableBetweenAdvances) {
  std::uint64_t events = 0;
  EventObserver counter{[&events](const ioa::TimedEvent&) { ++events; }};
  EchoRig rig{10'000'000, &counter};
  rig.sim.start();
  std::uint64_t dispatches = 0;
  for (;;) {
    const std::uint64_t before = events;
    const std::optional<Time> first = rig.sim.next_instant();
    const std::optional<Time> again = rig.sim.next_instant();
    EXPECT_EQ(again, first);
    EXPECT_EQ(events, before) << "next_instant() dispatched an event";
    if (!first.has_value()) break;
    // A dispatch can record no event: a process with nothing enabled stops.
    rig.sim.advance();
    ++dispatches;
  }
  EXPECT_GT(dispatches, 10u);
  EXPECT_EQ(rig.sim.take_result().event_count, events);
}

/// Every field of two RunResults equal.
void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.trace.events(), b.trace.events());
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.last_transmitter_send, b.last_transmitter_send);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.event_count, b.event_count);
  EXPECT_EQ(a.transmitter_steps, b.transmitter_steps);
  EXPECT_EQ(a.receiver_steps, b.receiver_steps);
  EXPECT_EQ(a.transmitter_sends, b.transmitter_sends);
  EXPECT_EQ(a.receiver_sends, b.receiver_sends);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(a.quiescent, b.quiescent);
  EXPECT_EQ(a.metrics, b.metrics);
}

TEST(Simulator, IncrementalDrivingEqualsRun) {
  // One run that ends quiescent and one that hits the event cap.
  for (const std::uint64_t cap : {std::uint64_t{10'000'000}, std::uint64_t{7}}) {
    EchoRig driven{cap};
    driven.sim.start();
    Time previous = Time::zero();
    while (const std::optional<Time> at = driven.sim.next_instant()) {
      EXPECT_GE(*at, previous);
      previous = *at;
      driven.sim.advance();
    }
    // Over: no instant, and one more dispatch is a contract violation.
    EXPECT_EQ(driven.sim.next_instant(), std::nullopt);
    EXPECT_THROW(driven.sim.advance(), ContractViolation);
    const RunResult incremental = driven.sim.take_result();

    EchoRig twin{cap};
    const RunResult whole = twin.sim.run();
    expect_same_result(incremental, whole);
    EXPECT_EQ(incremental.quiescent, cap > 7) << "cap " << cap;
  }
}

TEST(Simulator, ObserverSeesEveryEventInOrder) {
  const auto params = core::TimingParams::make(1, 1, 2);
  CounterSender sender{3};
  EchoReceiver receiver{true};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  std::vector<ioa::TimedEvent> seen;
  EventObserver observer{[&seen](const ioa::TimedEvent& e) { seen.push_back(e); }};
  cfg.observer = &observer;
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.quiescent);
  // Observer stream must equal the recorded trace exactly.
  EXPECT_EQ(seen, result.trace.events());
}

TEST(Simulator, ObserverWorksWithoutTraceRecording) {
  // The observer enables memory-flat invariant checking on long runs.
  const auto params = core::TimingParams::make(1, 1, 2);
  CounterSender sender{50};
  EchoReceiver receiver{true};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  cfg.record_trace = false;
  std::uint64_t events = 0;
  std::int64_t in_flight = 0;
  EventObserver observer{[&](const ioa::TimedEvent& e) {
    ++events;
    if (e.action.kind == ActionKind::Send) ++in_flight;
    if (e.action.kind == ActionKind::Recv) --in_flight;
    ASSERT_GE(in_flight, 0) << "a recv without a matching prior send";
  }};
  cfg.observer = &observer;
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.trace.empty());
  EXPECT_EQ(events, result.event_count);
  EXPECT_EQ(in_flight, 0);
}

TEST(Simulator, OneObserverCallPerEventCarriesWhatTheEventLacks) {
  // A γ run with acks in a randomized environment. Every applied event
  // reaches on_event exactly once, and its context holds the step gap, the
  // send instant and the send seq that the event itself does not.
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.k = 4;
  cfg.input = core::make_random_input(32, 5);
  ContextRecorder observer;
  SimConfig sim_config = config_for(cfg.params);
  sim_config.record_trace = false;
  sim_config.observer = &observer;
  const RunResult result =
      core::make_session(protocols::ProtocolKind::Gamma, cfg, core::Environment::randomized(3),
                         std::move(sim_config))
          ->run();
  ASSERT_TRUE(result.quiescent);
  EXPECT_EQ(result.output, cfg.input);
  EXPECT_GT(result.receiver_sends, 0u);
  ASSERT_EQ(observer.calls.size(), result.event_count);

  std::optional<Time> last_step[2];
  const obs::CounterSource* counters[2] = {nullptr, nullptr};
  std::vector<std::pair<std::uint64_t, ioa::TimedEvent>> sends;  // (send seq, event)
  std::uint64_t deliveries = 0;
  for (const auto& [event, context] : observer.calls) {
    ASSERT_NE(context.counters, nullptr) << "event " << event.seq;
    if (event.actor == Actor::Channel) {
      ++deliveries;
      std::size_t matches = 0;
      for (const auto& [seq, send] : sends) {
        if (seq != context.send_seq) continue;
        ++matches;
        EXPECT_EQ(send.time, context.sent_at) << "event " << event.seq;
        EXPECT_EQ(send.action.packet, event.action.packet) << "event " << event.seq;
      }
      EXPECT_EQ(matches, 1u) << "event " << event.seq;
      const Duration delay = event.time - context.sent_at;
      EXPECT_GE(delay, Duration{0}) << "event " << event.seq;
      EXPECT_LE(delay, cfg.params.d) << "event " << event.seq;
      const auto dest = static_cast<std::size_t>(event.action.packet.destination());
      if (counters[dest] == nullptr) counters[dest] = context.counters;
      EXPECT_EQ(context.counters, counters[dest]) << "event " << event.seq;
      continue;
    }
    const auto id = static_cast<std::size_t>(event.actor);
    std::optional<Time>& last = last_step[id];
    EXPECT_EQ(context.gap, last.has_value() ? event.time - *last : Duration{0})
        << "event " << event.seq;
    last = event.time;
    if (event.action.kind == ActionKind::Send) sends.emplace_back(context.send_seq, event);
    if (counters[id] == nullptr) counters[id] = context.counters;
    EXPECT_EQ(context.counters, counters[id]) << "event " << event.seq;
  }
  EXPECT_NE(counters[0], counters[1]);
  EXPECT_EQ(sends.size(), result.transmitter_sends + result.receiver_sends);
  EXPECT_EQ(deliveries, result.metrics.counters.data_recvs + result.metrics.counters.ack_recvs);
}

TEST(Simulator, ObserverExceptionAbortsRun) {
  const auto params = core::TimingParams::make(1, 1, 2);
  CounterSender sender{5};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_zero_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  EventObserver observer{[](const ioa::TimedEvent& e) {
    if (e.action.kind == ActionKind::Recv) {
      throw ModelError("stop at first delivery");
    }
  }};
  cfg.observer = &observer;
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  EXPECT_THROW((void)sim.run(), ModelError);
}

TEST(Simulator, RecordTraceOffKeepsCountsOnly) {
  const auto params = core::TimingParams::make(1, 1, 2);
  CounterSender sender{3};
  EchoReceiver receiver{false};
  channel::Channel chan{params.d, channel::make_max_delay()};
  FixedRateScheduler ts{params.c1};
  FixedRateScheduler rs{params.c1};
  SimConfig cfg = config_for(params);
  cfg.record_trace = false;
  Simulator sim{sender, receiver, chan, ts, rs, cfg};
  const RunResult result = sim.run();
  EXPECT_TRUE(result.trace.empty());
  EXPECT_EQ(result.transmitter_sends, 3u);
  EXPECT_GT(result.event_count, 0u);
}

TEST(Simulator, FindsProtocolCountersOnAllThreeDiscoveryPaths) {
  // A γ pair bumps all four block/ack counters. The simulator reaches them
  // through Automaton::counter_source() on three paths, and each must fold
  // the same counters.protocol into the RunResult: the protocol bases
  // answer it themselves, the host-time decorator forwards the wrapped
  // automaton's, and any other automaton falls back to a dynamic_cast. That
  // other automaton also takes the default step(), so the third path pins
  // the default composition's run to the protocols' own step() too.
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.k = 4;
  cfg.input = core::make_random_input(24, 11);
  const auto kind = protocols::ProtocolKind::Gamma;
  const core::Environment env = core::Environment::worst_case();

  const auto run_session = [&](obs::HostTimer* timer) {
    SimConfig sim_config = config_for(cfg.params);
    sim_config.host_timer = timer;
    return core::make_session(kind, cfg, env, std::move(sim_config))->run();
  };

  // 1. Protocol automata: their own counter_source(), no RTTI.
  {
    const protocols::ProtocolInstance instance = protocols::make_protocol(kind, cfg);
    EXPECT_EQ(instance.transmitter->counter_source(),
              static_cast<const obs::CounterSource*>(instance.transmitter.get()));
    EXPECT_EQ(instance.receiver->counter_source(),
              static_cast<const obs::CounterSource*>(instance.receiver.get()));
  }
  const RunResult bare = run_session(nullptr);
  const obs::ProtocolCounters& counters = bare.metrics.counters.protocol;
  EXPECT_GT(counters.blocks_encoded, 0u);
  EXPECT_EQ(counters.blocks_decoded, counters.blocks_encoded);
  EXPECT_GT(counters.acks_sent, 0u);
  EXPECT_EQ(counters.acks_observed, counters.acks_sent);

  // 2. sim::TimedAutomaton-decorated automata (Session with a host timer).
  obs::HostTimer timer;
  const RunResult timed = run_session(&timer);
  EXPECT_EQ(timed.metrics, bare.metrics);

  // 3. Automata outside the protocol bases that derive obs::CounterSource.
  protocols::ProtocolInstance instance = protocols::make_protocol(kind, cfg);
  const obs::CounterSource& t_counters = *instance.transmitter;
  const obs::CounterSource& r_counters = *instance.receiver;
  ForwardingAutomaton transmitter{std::move(instance.transmitter), t_counters};
  ForwardingAutomaton receiver{std::move(instance.receiver), r_counters};
  EXPECT_EQ(transmitter.counter_source(), static_cast<const obs::CounterSource*>(&transmitter));
  channel::Channel chan{cfg.params.d, channel::make_max_delay()};
  FixedRateScheduler ts{cfg.params.c2};
  FixedRateScheduler rs{cfg.params.c2};
  Simulator sim{transmitter, receiver, chan, ts, rs, config_for(cfg.params)};
  const RunResult forwarded = sim.run();
  EXPECT_EQ(forwarded.metrics, bare.metrics);
  EXPECT_EQ(forwarded.output, bare.output);
  // The default step() and deliver() take the run the protocols' own take,
  // event for event, with one apply() per event.
  EXPECT_EQ(forwarded.trace.events(), bare.trace.events());
  EXPECT_EQ(forwarded.event_count, bare.event_count);
  EXPECT_EQ(forwarded.end_time, bare.end_time);
  EXPECT_EQ(transmitter.input_applies(), bare.metrics.counters.ack_recvs);
  EXPECT_EQ(receiver.input_applies(), bare.metrics.counters.data_recvs);
  EXPECT_EQ(transmitter.local_applies(), bare.transmitter_steps);
  EXPECT_EQ(receiver.local_applies(), bare.receiver_steps);
}

/// One on_event call as the comparisons below read it: the event, the
/// context's values, and a copy of the counters the context points at.
struct ObservedCall {
  ioa::TimedEvent event;
  Duration gap{};
  Time sent_at{};
  std::uint64_t send_seq = 0;
  std::optional<obs::ProtocolCounters> counters;

  friend bool operator==(const ObservedCall&, const ObservedCall&) = default;
};

/// Keeps every on_event call as an ObservedCall, and the on_finish call.
class CallRecorder final : public SimObserver {
 public:
  void on_event(const ioa::TimedEvent& event, const EventContext& context) override {
    calls.push_back(ObservedCall{event, context.gap, context.sent_at, context.send_seq,
                                 context.counters == nullptr
                                     ? std::nullopt
                                     : std::optional{context.counters->protocol_counters()}});
  }
  void on_finish(Time end, const std::vector<fault::FaultEvent>& faults) override {
    finished_at = end;
    finish_faults = faults;
  }

  std::vector<ObservedCall> calls;
  std::optional<Time> finished_at;
  std::vector<fault::FaultEvent> finish_faults;
};

/// What one observed run produced: its result or the text of the error that
/// ended it (up to the check's source location, which names the instance),
/// the checker's verdict, every observer call and the channel's fault log.
struct ObservedRun {
  RunResult result;
  std::string error;
  core::VerifyResult verdict;
  CallRecorder recorder;
  std::vector<fault::FaultEvent> fault_log;
};

/// Runs `kind` in `env` with a TraceChecker and a CallRecorder armed and,
/// when `faults` is set, a seeded fault injector on the channel. With
/// `through_session` the parts go to a Session, which runs the pair's typed
/// instance in these fixed-rate environments; otherwise the same parts are
/// wired by hand into a Simulator, the generic instance.
void observed_run(ObservedRun& out, protocols::ProtocolKind kind, const core::Environment& env,
                  bool faults, bool through_session) {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.input = core::make_random_input(24, 11);
  cfg.k = protocols::alphabet_for(kind, 4, cfg.input.size());
  core::TraceChecker checker{cfg.params, cfg.input};
  ObserverTee tee{&checker, &out.recorder};
  SimConfig sim_config = config_for(cfg.params);
  sim_config.max_events = 20'000;
  sim_config.observer = tee.armed();
  // The seeds core::make_session draws from the environment.
  Rng seeder{env.seed};
  const std::uint64_t t_seed = seeder.next_u64();
  const std::uint64_t r_seed = seeder.next_u64();
  const std::uint64_t policy_seed = seeder.next_u64();
  std::unique_ptr<StepScheduler> ts =
      core::make_scheduler(env.transmitter_sched, cfg.params, t_seed);
  std::unique_ptr<StepScheduler> rs = core::make_scheduler(env.receiver_sched, cfg.params, r_seed);
  std::unique_ptr<channel::DeliveryPolicy> policy =
      core::make_delivery_policy(env.delay, cfg.params, policy_seed);
  std::unique_ptr<fault::FaultInjector> injector;
  if (faults) {
    // The third send is always dropped; the rest draw from the rates.
    injector = std::make_unique<fault::SeededFaultInjector>(
        23,
        fault::FaultRates{.drop_pm = 60, .duplicate_pm = 60, .late_pm = 60,
                          .corrupt_space = cfg.k},
        std::vector<fault::PinnedFault>{{.send_seq = 2, .kind = fault::FaultKind::Drop}});
  }
  protocols::ProtocolInstance instance = protocols::make_protocol(kind, cfg);
  std::optional<Session> session;
  std::optional<channel::Channel> chan;
  std::optional<Simulator> sim;
  if (through_session) {
    session.emplace(std::move(instance), std::move(ts), std::move(rs), std::move(policy),
                    sim_config, Duration{0}, std::move(injector));
  } else {
    chan.emplace(cfg.params.d, std::move(policy));
    chan->set_fault_injector(injector.get());
    sim.emplace(*instance.transmitter, *instance.receiver, *chan, *ts, *rs, sim_config);
    sim->reserve_output(instance.input_bits);
  }
  try {
    out.result = session.has_value() ? session->run() : sim->run();
  } catch (const std::exception& e) {
    const std::string what = e.what();
    out.error = what.substr(0, what.find(" at "));
  }
  // The channel's log outlives a run that a fault crashed.
  out.fault_log = (session.has_value() ? session->channel() : *chan).fault_log();
  out.verdict = checker.finish();
}

TEST(Simulator, TypedSessionsEqualTheGenericInstanceWithObserversAndFaults) {
  // Gate: in the two fixed-rate environments a Session runs its pair's typed
  // instance; the same parts wired into Simulator must give the same run,
  // observer call for observer call, with and without injected faults.
  std::size_t faulted_runs = 0;
  std::size_t completed_runs = 0;
  for (const protocols::ProtocolKind kind : protocols::kAllProtocolKinds) {
    for (const core::Environment& env :
         {core::Environment::worst_case(), core::Environment::adversarial_fast()}) {
      for (const bool faults : {false, true}) {
        SCOPED_TRACE(std::string{protocols::to_string(kind)} +
                     (env.delay == core::Environment::Delay::Max ? " worst_case" : " adversarial") +
                     (faults ? " with faults" : ""));
        ObservedRun typed;
        ObservedRun generic;
        observed_run(typed, kind, env, faults, /*through_session=*/true);
        observed_run(generic, kind, env, faults, /*through_session=*/false);
        EXPECT_EQ(typed.error, generic.error);
        expect_same_result(typed.result, generic.result);
        EXPECT_EQ(typed.verdict.violations, generic.verdict.violations);
        EXPECT_EQ(typed.recorder.calls, generic.recorder.calls);
        EXPECT_EQ(typed.recorder.finished_at, generic.recorder.finished_at);
        EXPECT_EQ(typed.recorder.finish_faults, generic.recorder.finish_faults);
        EXPECT_EQ(typed.fault_log, generic.fault_log);
        EXPECT_FALSE(typed.recorder.calls.empty());
        if (!typed.fault_log.empty()) ++faulted_runs;
        if (typed.error.empty()) ++completed_runs;
      }
    }
  }
  // The injector reaches every faulted run. Ten of them complete (γ and the
  // alternating bit at the event cap, their dropped packet never acked) and
  // compare RunResults that carry faults; the other four stop on a
  // protocol's check and compare the error, the observer calls and the log.
  EXPECT_EQ(faulted_runs, 14u);
  EXPECT_EQ(completed_runs, 24u);
}

TEST(Simulator, TypedInstanceResumesAProcessThatAnInputReEnables) {
  // Gate: the sender stops after every send and only the ack's delivery
  // enables it again, so each of its steps after the first is scheduled by
  // deliver()'s re-enable branch. An instance typed on these automata and
  // FixedRateScheduler, the step law of every protocol's typed instance,
  // must run exactly as Simulator does.
  const auto params = core::TimingParams::make(1, 2, 4);
  const auto run = [&](auto tag) {
    using Sim = typename decltype(tag)::type;
    CounterSender sender{4, /*await_acks=*/true};
    EchoReceiver receiver{true};
    channel::Channel chan{params.d, channel::make_max_delay()};
    FixedRateScheduler ts{params.c2};
    FixedRateScheduler rs{params.c1};
    SimConfig cfg = config_for(params);
    cfg.max_events = 1000;
    Sim sim{sender, receiver, chan, ts, rs, cfg};
    return sim.run();
  };
  const RunResult typed =
      run(std::type_identity<BasicSimulator<CounterSender, EchoReceiver, FixedRateScheduler>>{});
  const RunResult generic = run(std::type_identity<Simulator>{});
  expect_same_result(typed, generic);
  EXPECT_TRUE(typed.quiescent);
  EXPECT_EQ(typed.transmitter_sends, 4u);
  EXPECT_EQ(typed.receiver_sends, 4u);
}

}  // namespace
}  // namespace rstp::sim
