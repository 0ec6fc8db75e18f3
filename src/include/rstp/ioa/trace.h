// Timed executions and traces (paper §2.2).
//
// A TimedTrace is the recorded timed execution of the composed system: a
// sequence of (time, actor, action) triples with non-decreasing times and
// t(first event) = 0 normalization left to the producer. Events carry a
// global sequence number so that simultaneous events retain the execution's
// total order (the paper's executions are sequences; timing maps events to
// reals monotonically but not injectively).
//
// The trace is the interface between the simulator (which produces it), the
// verifier (which checks it against good(A)), and the effort harness (which
// reads last-send times off it).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "rstp/common/time.h"
#include "rstp/ioa/action.h"

namespace rstp::ioa {

/// Which component of the composition performed the event's action (the
/// component for which the action is *local*): send/write/internal events
/// belong to a process; recv events belong to the channel.
enum class Actor : std::uint8_t { Transmitter = 0, Receiver = 1, Channel = 2 };

std::ostream& operator<<(std::ostream& os, Actor a);

[[nodiscard]] constexpr Actor actor_of(ProcessId p) {
  return p == ProcessId::Transmitter ? Actor::Transmitter : Actor::Receiver;
}

struct TimedEvent {
  Time time{};
  Actor actor = Actor::Channel;
  Action action{};
  std::uint64_t seq = 0;  ///< position in the execution's total order

  friend bool operator==(const TimedEvent&, const TimedEvent&) = default;
};
static_assert(sizeof(TimedEvent) == 40, "time, actor, a 16-byte action and seq");

std::ostream& operator<<(std::ostream& os, const TimedEvent& e);

class TimedTrace {
 public:
  TimedTrace() = default;

  /// Appends an event; times must be non-decreasing and seq strictly
  /// increasing (enforced).
  void append(TimedEvent event);

  /// Pre-allocates storage for `events` appends (producers that know the
  /// execution's rough length avoid reallocation churn on the hot path).
  void reserve(std::size_t events) { events_.reserve(events); }

  [[nodiscard]] const std::vector<TimedEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// The messages written in the execution — the paper's Y(η).
  [[nodiscard]] std::vector<Bit> written_messages() const;

  /// Time of the last send event by the given process (the paper's
  /// last-send(η^t) is the transmitter's); nullopt if it never sent.
  [[nodiscard]] std::optional<Time> last_send_time(ProcessId sender) const;

  /// Number of send events by the given process.
  [[nodiscard]] std::size_t send_count(ProcessId sender) const;

  /// beh(α) (paper §2.1): the external actions only — send/recv/write
  /// events, with internal steps removed.
  [[nodiscard]] std::vector<TimedEvent> behavior() const;

  /// The timed execution as one process observes it (the paper's α|A_p for
  /// a process): its own local events plus the recv events addressed to it.
  /// Lemma 5.1's indistinguishability is literally "equal receiver views".
  [[nodiscard]] std::vector<TimedEvent> process_view(ProcessId process) const;

  /// Time of the last event, or Time::zero() if empty.
  [[nodiscard]] Time end_time() const;

 private:
  std::vector<TimedEvent> events_;
};

std::ostream& operator<<(std::ostream& os, const TimedTrace& trace);

}  // namespace rstp::ioa
