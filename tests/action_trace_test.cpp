// Tests for the I/O-automata action vocabulary and timed traces.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "rstp/common/check.h"
#include "rstp/ioa/action.h"
#include "rstp/ioa/trace.h"
#include "rstp/ioa/trace_io.h"

namespace rstp::ioa {
namespace {

TEST(Packet, DirectionRouting) {
  const Packet data = Packet::to_receiver(3);
  EXPECT_EQ(data.destination(), ProcessId::Receiver);
  EXPECT_EQ(data.source(), ProcessId::Transmitter);
  const Packet ack = Packet::to_transmitter(0);
  EXPECT_EQ(ack.destination(), ProcessId::Transmitter);
  EXPECT_EQ(ack.source(), ProcessId::Receiver);
  EXPECT_EQ(peer(ProcessId::Transmitter), ProcessId::Receiver);
  EXPECT_EQ(peer(ProcessId::Receiver), ProcessId::Transmitter);
}

TEST(Packet, EqualityIncludesDirectionAndPayload) {
  EXPECT_EQ(Packet::to_receiver(1), Packet::to_receiver(1));
  EXPECT_NE(Packet::to_receiver(1), Packet::to_receiver(2));
  EXPECT_NE(Packet::to_receiver(1), Packet::to_transmitter(1));
}

TEST(Action, FactoryAndEquality) {
  const Action s = Action::send(Packet::to_receiver(5));
  EXPECT_EQ(s.kind, ActionKind::Send);
  EXPECT_EQ(s.packet.payload, 5u);
  EXPECT_EQ(s, Action::send(Packet::to_receiver(5)));
  EXPECT_NE(s, Action::recv(Packet::to_receiver(5)));  // kind differs

  const Action w = Action::write(1);
  EXPECT_EQ(w.kind, ActionKind::Write);
  EXPECT_EQ(w, Action::write(1));
  EXPECT_NE(w, Action::write(0));

  const Action i = Action::internal(7);
  EXPECT_EQ(i.kind, ActionKind::Internal);
  EXPECT_EQ(i, Action::internal(7)) << "an internal action is its id";
  EXPECT_NE(i, Action::internal(8));
}

TEST(Action, StreamFormatting) {
  std::ostringstream os;
  os << Action::send(Packet::to_receiver(2)) << " | " << Action::write(1) << " | "
     << Action::internal(1);
  EXPECT_EQ(os.str(), "send(pkt(t→r, 2)) | write(1) | wait_t");
}

TEST(Action, InternalNamesComeFromOneTable) {
  const auto printed = [](const Action& a) {
    std::ostringstream os;
    os << a;
    return os.str();
  };
  EXPECT_EQ(printed(Action::internal(kWaitT)), "wait_t");
  EXPECT_EQ(printed(Action::internal(kIdleR)), "idle_r");
  EXPECT_EQ(printed(Action::internal(kIdleT)), "idle_t");
  EXPECT_EQ(printed(Action::internal(0)), "internal#0");
  EXPECT_EQ(printed(Action::internal(7)), "internal#7");
  EXPECT_EQ(internal_name(7), "");
}

TEST(TimedTrace, WriteParseRoundTripIsByteIdentical) {
  TimedTrace trace;
  trace.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(3)), 0});
  trace.append({at_tick(1), Actor::Transmitter, Action::internal(kWaitT), 1});
  trace.append({at_tick(2), Actor::Channel, Action::recv(Packet::to_receiver(3)), 2});
  trace.append({at_tick(2), Actor::Receiver, Action::send(Packet::to_transmitter(1)), 3});
  trace.append({at_tick(3), Actor::Receiver, Action::internal(kIdleR), 4});
  trace.append({at_tick(4), Actor::Channel, Action::recv(Packet::to_transmitter(1)), 5});
  trace.append({at_tick(4), Actor::Transmitter, Action::internal(kIdleT), 6});
  trace.append({at_tick(5), Actor::Receiver, Action::write(1), 7});
  trace.append({at_tick(6), Actor::Receiver, Action::internal(7), 8});
  const std::string text = trace_to_string(trace);
  EXPECT_NE(text.find("1 1 t internal 1 wait_t\n"), std::string::npos) << text;
  EXPECT_NE(text.find("8 6 r internal 7\n"), std::string::npos) << text;
  const TimedTrace parsed = parse_trace_string(text);
  EXPECT_EQ(parsed.events(), trace.events());
  EXPECT_EQ(trace_to_string(parsed), text);
}

TEST(TimedTrace, AppendEnforcesMonotonicity) {
  TimedTrace trace;
  trace.append({at_tick(0), Actor::Transmitter, Action::internal(1), 0});
  trace.append({at_tick(0), Actor::Receiver, Action::internal(2), 1});  // equal time OK
  trace.append({at_tick(5), Actor::Channel, Action::recv(Packet::to_receiver(0)), 2});
  EXPECT_THROW(trace.append({at_tick(4), Actor::Transmitter, Action::internal(1), 3}),
               ContractViolation);
  EXPECT_THROW(trace.append({at_tick(5), Actor::Transmitter, Action::internal(1), 2}),
               ContractViolation);  // seq must increase
  EXPECT_EQ(trace.size(), 3u);
}

TEST(TimedTrace, WrittenMessagesExtractsY) {
  TimedTrace trace;
  trace.append({at_tick(1), Actor::Receiver, Action::write(1), 0});
  trace.append({at_tick(2), Actor::Receiver, Action::internal(2), 1});
  trace.append({at_tick(3), Actor::Receiver, Action::write(0), 2});
  trace.append({at_tick(4), Actor::Receiver, Action::write(1), 3});
  EXPECT_EQ(trace.written_messages(), (std::vector<Bit>{1, 0, 1}));
}

TEST(TimedTrace, LastSendTracksPerSender) {
  TimedTrace trace;
  EXPECT_FALSE(trace.last_send_time(ProcessId::Transmitter).has_value());
  trace.append({at_tick(1), Actor::Transmitter, Action::send(Packet::to_receiver(0)), 0});
  trace.append({at_tick(4), Actor::Receiver, Action::send(Packet::to_transmitter(0)), 1});
  trace.append({at_tick(9), Actor::Transmitter, Action::send(Packet::to_receiver(1)), 2});
  ASSERT_TRUE(trace.last_send_time(ProcessId::Transmitter).has_value());
  EXPECT_EQ(*trace.last_send_time(ProcessId::Transmitter), at_tick(9));
  EXPECT_EQ(*trace.last_send_time(ProcessId::Receiver), at_tick(4));
  EXPECT_EQ(trace.send_count(ProcessId::Transmitter), 2u);
  EXPECT_EQ(trace.send_count(ProcessId::Receiver), 1u);
}

TEST(TimedTrace, BehaviorDropsInternalActions) {
  TimedTrace trace;
  trace.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(0)), 0});
  trace.append({at_tick(1), Actor::Transmitter, Action::internal(1), 1});
  trace.append({at_tick(2), Actor::Channel, Action::recv(Packet::to_receiver(0)), 2});
  trace.append({at_tick(3), Actor::Receiver, Action::internal(2), 3});
  trace.append({at_tick(4), Actor::Receiver, Action::write(0), 4});
  const auto beh = trace.behavior();
  ASSERT_EQ(beh.size(), 3u);
  EXPECT_EQ(beh[0].action.kind, ActionKind::Send);
  EXPECT_EQ(beh[1].action.kind, ActionKind::Recv);
  EXPECT_EQ(beh[2].action.kind, ActionKind::Write);
}

TEST(TimedTrace, ProcessViewContainsOwnStepsAndIncomingPackets) {
  TimedTrace trace;
  trace.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(7)), 0});
  trace.append({at_tick(1), Actor::Channel, Action::recv(Packet::to_receiver(7)), 1});
  trace.append({at_tick(2), Actor::Receiver, Action::send(Packet::to_transmitter(0)), 2});
  trace.append({at_tick(3), Actor::Channel, Action::recv(Packet::to_transmitter(0)), 3});
  trace.append({at_tick(4), Actor::Receiver, Action::write(1), 4});

  const auto r_view = trace.process_view(ProcessId::Receiver);
  ASSERT_EQ(r_view.size(), 3u);  // incoming data, own ack send, own write
  EXPECT_EQ(r_view[0].action.kind, ActionKind::Recv);
  EXPECT_EQ(r_view[1].action.kind, ActionKind::Send);
  EXPECT_EQ(r_view[2].action.kind, ActionKind::Write);

  const auto t_view = trace.process_view(ProcessId::Transmitter);
  ASSERT_EQ(t_view.size(), 2u);  // own send, incoming ack
  EXPECT_EQ(t_view[0].action.kind, ActionKind::Send);
  EXPECT_EQ(t_view[1].action.kind, ActionKind::Recv);
  EXPECT_EQ(t_view[1].action.packet.destination(), ProcessId::Transmitter);
}

TEST(TimedTrace, EndTimeIsTheLastEventsTime) {
  TimedTrace trace;
  trace.append({at_tick(0), Actor::Transmitter, Action::send(Packet::to_receiver(0)), 0});
  trace.append({at_tick(2), Actor::Channel, Action::recv(Packet::to_receiver(0)), 1});
  trace.append({at_tick(3), Actor::Receiver, Action::write(0), 2});
  EXPECT_EQ(trace.end_time(), at_tick(3));
  EXPECT_EQ(TimedTrace{}.end_time(), Time::zero());
}

}  // namespace
}  // namespace rstp::ioa
