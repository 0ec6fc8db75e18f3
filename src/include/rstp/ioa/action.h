// The action vocabulary of the RSTP I/O automata (paper §2, §4).
//
// Every automaton in the composition A_t ∘ C ∘ A_r interacts through four
// kinds of actions:
//   send(p)  — output of a process, input of the channel
//   recv(p)  — output of the channel, input of a process
//   write(m) — output of the receiver (appends m to the output tape Y)
//   internal — wait_t / idle_r / idle_t, identified by id alone
//
// Packets carry a direction tag (P^tr vs P^rt — the paper keeps the two
// sub-alphabets disjoint) and an integer payload: a symbol in {0..k-1} for
// data packets, a protocol-defined value for acknowledgement packets.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <string_view>

namespace rstp::ioa {

/// A message bit, the paper's M = {0, 1}.
using Bit = std::uint8_t;

/// Which process an event belongs to (the channel is a third actor).
enum class ProcessId : std::uint8_t { Transmitter = 0, Receiver = 1 };

[[nodiscard]] constexpr ProcessId peer(ProcessId p) {
  return p == ProcessId::Transmitter ? ProcessId::Receiver : ProcessId::Transmitter;
}

std::ostream& operator<<(std::ostream& os, ProcessId p);

/// A packet on the channel. `direction` partitions the alphabet into the
/// paper's P^tr (transmitter→receiver) and P^rt (receiver→transmitter).
struct Packet {
  enum class Direction : std::uint8_t { TransmitterToReceiver = 0, ReceiverToTransmitter = 1 };

  Direction direction = Direction::TransmitterToReceiver;
  std::uint32_t payload = 0;

  /// The process this packet is addressed to.
  [[nodiscard]] constexpr ProcessId destination() const {
    return direction == Direction::TransmitterToReceiver ? ProcessId::Receiver
                                                         : ProcessId::Transmitter;
  }
  /// The process that sent this packet.
  [[nodiscard]] constexpr ProcessId source() const { return peer(destination()); }

  [[nodiscard]] static constexpr Packet to_receiver(std::uint32_t payload) {
    return Packet{Direction::TransmitterToReceiver, payload};
  }
  [[nodiscard]] static constexpr Packet to_transmitter(std::uint32_t payload) {
    return Packet{Direction::ReceiverToTransmitter, payload};
  }

  friend constexpr auto operator<=>(const Packet&, const Packet&) = default;
};

std::ostream& operator<<(std::ostream& os, const Packet& p);

enum class ActionKind : std::uint8_t { Send, Recv, Write, Internal };

std::ostream& operator<<(std::ostream& os, ActionKind k);

/// The internal actions every protocol shares (the paper's int(A)): an
/// internal action is its id alone.
inline constexpr std::uint16_t kWaitT = 1;  ///< transmitter inter-block wait
inline constexpr std::uint16_t kIdleR = 2;  ///< receiver idle
inline constexpr std::uint16_t kIdleT = 3;  ///< transmitter idle (await acks)

/// The trace label of internal action `id` ("wait_t", "idle_r", "idle_t"
/// for the three above), empty for any other id. The one id→name table;
/// only operator<< and write_trace read it.
[[nodiscard]] std::string_view internal_name(std::uint16_t id);

/// One action. Which payload field is meaningful depends on `kind`; the
/// factory functions below are the only intended constructors. An action is
/// 16 bytes and carries no name: an internal action's label comes from
/// internal_name(internal_id) when it is printed.
struct Action {
  ActionKind kind = ActionKind::Internal;
  Packet packet{};                // Send / Recv
  Bit message = 0;                // Write
  std::uint16_t internal_id = 0;  // Internal

  [[nodiscard]] static Action send(Packet p) { return Action{ActionKind::Send, p, 0, 0}; }
  [[nodiscard]] static Action recv(Packet p) { return Action{ActionKind::Recv, p, 0, 0}; }
  [[nodiscard]] static Action write(Bit m) { return Action{ActionKind::Write, {}, m, 0}; }
  [[nodiscard]] static Action internal(std::uint16_t id) {
    return Action{ActionKind::Internal, {}, 0, id};
  }

  friend bool operator==(const Action& a, const Action& b) {
    if (a.kind != b.kind) return false;
    switch (a.kind) {
      case ActionKind::Send:
      case ActionKind::Recv:
        return a.packet == b.packet;
      case ActionKind::Write:
        return a.message == b.message;
      case ActionKind::Internal:
        return a.internal_id == b.internal_id;
    }
    return false;
  }
};
static_assert(sizeof(Action) == 16, "an action is its kind and one payload field");

std::ostream& operator<<(std::ostream& os, const Action& a);

}  // namespace rstp::ioa
