// Deterministic I/O automata (paper §2.1, restricted per §5: "we consider
// only solutions (A_t, A_r) where both A_t and A_r are deterministic").
//
// A deterministic I/O automaton has, in every state, at most one enabled
// local (output or internal) action, and is input-enabled: any input action
// can be applied in any state. The simulator (sim/) drives an automaton by
// alternately delivering inputs (recv events, at channel-chosen times) and
// taking its next local step (at scheduler-chosen times). Each is one call:
// because at most one local action is enabled, choosing it and taking it
// are one transition, and step() does both and reports the action taken
// and the quiescence after it in a LocalStep; deliver() takes one input
// recv(p) and returns the quiescence after it.
//
// `snapshot()` serializes the automaton's full state; it exists for the
// bounded-exhaustive explorer (ioa/explorer.h) and for debugging, and two
// automata of the same type with equal snapshots must behave identically.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "rstp/ioa/action.h"

namespace rstp::obs {
class CounterSource;
}  // namespace rstp::obs

namespace rstp::ioa {

/// What one local step did: the action taken and quiescent() after it.
struct LocalStep {
  Action action;
  bool quiescent = false;
};
static_assert(sizeof(LocalStep) == 20, "a 16-byte action and a flag");

class Automaton {
 public:
  virtual ~Automaton() = default;

  /// Human-readable automaton name: a fixed label per class (e.g. "A_t^beta").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// The unique enabled local action in the current state, or nullopt if no
  /// local action is enabled (the automaton is stopped; a finite execution
  /// ending here is fair, §2.1).
  [[nodiscard]] virtual std::optional<Action> enabled_local() const = 0;

  /// Applies a transition. `action` must be either the currently enabled
  /// local action or an input action the automaton accepts; anything else is
  /// a contract violation.
  virtual void apply(const Action& action) = 0;

  /// Takes the enabled local action: fills `out` with it and with
  /// quiescent() after it, and returns true. Returns false and changes
  /// nothing when the automaton is stopped. The default composes
  /// enabled_local(), apply() and quiescent(), for decorators and test
  /// automata; the protocols take it from one template, protocols::Process,
  /// whose apply() routes a local action here (protocols/base.h).
  virtual bool step(LocalStep& out);

  /// Takes the input recv(packet) and returns quiescent() after it; a
  /// packet that is not an input of this automaton fails an RSTP_CHECK and
  /// changes nothing. The default composes accepts_input(), apply() and
  /// quiescent(), for decorators and test automata; protocols::Process
  /// overrides it with one direction check (protocols/base.h).
  virtual bool deliver(const Packet& packet);

  /// True iff `action` is an input action of this automaton (in(A)).
  /// Input-enabledness: apply() must accept any such action in any state.
  [[nodiscard]] virtual bool accepts_input(const Action& action) const = 0;

  /// True when the automaton has finished all useful work and will only
  /// idle (or do nothing) unless it receives further input. Used by the
  /// simulator's quiescence detection; it never affects the transition
  /// relation itself. It must be a predicate of the automaton's state: the
  /// simulator reads it once after each transition and keeps the value.
  [[nodiscard]] virtual bool quiescent() const = 0;

  /// Serialized full state; equal snapshots (for the same concrete type)
  /// imply equal future behaviour. Every field a transition reads or writes
  /// is printed, queues and multisets by content rather than by size: the
  /// explorer keys its memo on snapshots, so a hidden field merges states
  /// that behave differently and can hide a violation. Counters that only
  /// observe the run (obs::ProtocolCounters) are not state.
  [[nodiscard]] virtual std::string snapshot() const = 0;

  /// Deep copy, used by the explorer to branch the state space.
  [[nodiscard]] virtual std::unique_ptr<Automaton> clone() const = 0;

  /// This automaton's protocol counters, or null when it has none; the
  /// simulator reads it once per run. protocols::ProcessBase and the
  /// host-time decorator override it without RTTI; the default finds a
  /// CounterSource base by dynamic_cast.
  [[nodiscard]] virtual const obs::CounterSource* counter_source() const;

 protected:
  Automaton() = default;
  Automaton(const Automaton&) = default;
  Automaton& operator=(const Automaton&) = default;
};

}  // namespace rstp::ioa
