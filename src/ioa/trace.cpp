#include "rstp/ioa/trace.h"

#include <ostream>

#include "rstp/common/check.h"

namespace rstp::ioa {

std::ostream& operator<<(std::ostream& os, Actor a) {
  switch (a) {
    case Actor::Transmitter:
      return os << "A_t";
    case Actor::Receiver:
      return os << "A_r";
    case Actor::Channel:
      return os << "C";
  }
  return os << "?";
}

std::ostream& operator<<(std::ostream& os, const TimedEvent& e) {
  return os << e.time << ' ' << e.actor << ": " << e.action;
}

void TimedTrace::append(TimedEvent event) {
  if (!events_.empty()) {
    RSTP_CHECK_LE(events_.back().time, event.time, "trace times must be non-decreasing");
    RSTP_CHECK_LT(events_.back().seq, event.seq, "trace seq numbers must increase");
  }
  events_.push_back(event);
}

std::vector<Bit> TimedTrace::written_messages() const {
  std::vector<Bit> result;
  for (const TimedEvent& e : events_) {
    if (e.action.kind == ActionKind::Write) {
      result.push_back(e.action.message);
    }
  }
  return result;
}

std::optional<Time> TimedTrace::last_send_time(ProcessId sender) const {
  std::optional<Time> last;
  for (const TimedEvent& e : events_) {
    if (e.action.kind == ActionKind::Send && e.action.packet.source() == sender) {
      last = e.time;
    }
  }
  return last;
}

std::size_t TimedTrace::send_count(ProcessId sender) const {
  std::size_t count = 0;
  for (const TimedEvent& e : events_) {
    if (e.action.kind == ActionKind::Send && e.action.packet.source() == sender) {
      ++count;
    }
  }
  return count;
}

std::vector<TimedEvent> TimedTrace::behavior() const {
  std::vector<TimedEvent> result;
  for (const TimedEvent& e : events_) {
    if (e.action.kind != ActionKind::Internal) {
      result.push_back(e);
    }
  }
  return result;
}

std::vector<TimedEvent> TimedTrace::process_view(ProcessId process) const {
  const Actor own = actor_of(process);
  std::vector<TimedEvent> result;
  for (const TimedEvent& e : events_) {
    const bool own_step = e.actor == own;
    const bool incoming = e.action.kind == ActionKind::Recv &&
                          e.action.packet.destination() == process;
    if (own_step || incoming) {
      result.push_back(e);
    }
  }
  return result;
}

Time TimedTrace::end_time() const { return events_.empty() ? Time::zero() : events_.back().time; }

std::ostream& operator<<(std::ostream& os, const TimedTrace& trace) {
  for (const TimedEvent& e : trace.events()) {
    os << e << '\n';
  }
  return os;
}

}  // namespace rstp::ioa
