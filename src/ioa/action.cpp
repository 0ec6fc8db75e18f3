#include "rstp/ioa/action.h"

#include <iterator>
#include <ostream>

namespace rstp::ioa {

std::string_view internal_name(std::uint16_t id) {
  static constexpr std::string_view kNames[] = {{}, "wait_t", "idle_r", "idle_t"};
  static_assert(kWaitT == 1 && kIdleR == 2 && kIdleT == 3, "kNames is indexed by id");
  return id < std::size(kNames) ? kNames[id] : std::string_view{};
}

std::ostream& operator<<(std::ostream& os, ProcessId p) {
  return os << (p == ProcessId::Transmitter ? "t" : "r");
}

std::ostream& operator<<(std::ostream& os, const Packet& p) {
  const char* dir = p.direction == Packet::Direction::TransmitterToReceiver ? "t→r" : "r→t";
  return os << "pkt(" << dir << ", " << p.payload << ")";
}

std::ostream& operator<<(std::ostream& os, ActionKind k) {
  switch (k) {
    case ActionKind::Send:
      return os << "send";
    case ActionKind::Recv:
      return os << "recv";
    case ActionKind::Write:
      return os << "write";
    case ActionKind::Internal:
      return os << "internal";
  }
  return os << "?";
}

std::ostream& operator<<(std::ostream& os, const Action& a) {
  switch (a.kind) {
    case ActionKind::Send:
      return os << "send(" << a.packet << ")";
    case ActionKind::Recv:
      return os << "recv(" << a.packet << ")";
    case ActionKind::Write:
      return os << "write(" << static_cast<int>(a.message) << ")";
    case ActionKind::Internal:
      if (const std::string_view name = internal_name(a.internal_id); !name.empty()) {
        return os << name;
      }
      return os << "internal#" << a.internal_id;
  }
  return os << "?";
}

}  // namespace rstp::ioa
