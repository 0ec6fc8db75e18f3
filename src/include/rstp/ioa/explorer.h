// Bounded-exhaustive exploration of good(A) for small instances.
//
// The simulator samples one execution per run; the explorer instead walks
// EVERY execution of A_t ∘ C ∘ A_r in a restricted but adversarially
// complete fragment of good(A):
//   * each process steps at a fixed integer period (c1 = c2 = period per
//     process; periods may differ — the §7 asymmetric fragment). Timing
//     *uncertainty* (c1 < c2) is exercised by randomized property tests;
//   * d is a small integer — each packet sent at instant s may be delivered
//     at any instant in [s, s+d] (receiver-bound; [s+1, s+d] for acks, which
//     cannot overtake the sender's own simultaneous step), in ANY order
//     relative to other deliverable packets.
// Within one instant the canonical event order matches the simulator:
// deliveries to the transmitter → the transmitter's step → deliveries to the
// receiver (including same-instant zero-delay arrivals of packets the
// transmitter just sent) → the receiver's step.
//
// Each explored transition is one such event. A state is (stage, phase,
// t-state, r-state, in-flight packets with slots relative to now), where the
// stage is the instant's boundary, its deliveries to the transmitter, or its
// deliveries to the receiver. A move delivers one eligible packet to the
// stage's process, or closes the stage once no packet at its deadline is
// left for that process: closing the transmitter's stage takes its step
// (a packet it sends is fresh), and closing the receiver's stage leaves the
// fresh packet in flight or delivers it last, takes the receiver's step and
// starts the next instant. Every state is memoized on its snapshot()s, so
// the j! orders of j deliveries meet in the memo instead of being replayed,
// and a state has at most e + 2 successors for e packets in flight.
//
// The explorer checks a safety predicate after every process step and a
// completion predicate in every terminal state, so the search space is the
// set of distinct states, not executions.
//
// This is how the repository demonstrates Lemma 6.1-style correctness
// exhaustively: for tiny X, EVERY admissible reordering of every admissible
// delivery schedule leaves Y a prefix of X and every execution completes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "rstp/ioa/automaton.h"
#include "rstp/ioa/trace.h"

namespace rstp::ioa {

struct ExplorerConfig {
  /// Integer delay bound d (in ticks).
  std::int64_t d = 2;
  /// Per-process step periods (the §7 asymmetric generalization with
  /// c1 = c2 = period per process): the transmitter steps at ticks divisible
  /// by t_period, the receiver at ticks divisible by r_period. Default 1/1
  /// is the synchronous fragment described above.
  std::int64_t t_period = 1;
  std::int64_t r_period = 1;
  /// Cap on distinct memoized states, within instants as well as at their
  /// boundaries; reaching it sets exhausted_caps. It bounds the work, as a
  /// state has at most e + 2 successors, and the depth, as a branch never
  /// repeats a memoized state.
  std::uint64_t max_states = 2'000'000;
};

struct ExplorerResult {
  /// Distinct states at instant boundaries, and those of them that are
  /// terminal; states within an instant are not counted.
  std::uint64_t distinct_states = 0;
  std::uint64_t terminal_states = 0;
  /// Moves out of every expanded state (one delivery or one process step
  /// each), counting those into a state already seen.
  std::uint64_t transitions = 0;
  bool safety_held = true;
  bool all_terminals_complete = true;
  bool exhausted_caps = false;
  /// Snapshot of the first state violating safety/completion, if any.
  std::string first_violation;
  /// The execution reaching the first violation, as a timed trace (one tick
  /// per instant; recv events carry Actor::Channel as in the simulator).
  /// Empty when no violation was found. The trace is a genuine member of
  /// good(A) — feeding it to core::verify_trace shows timing/channel clean
  /// but the output property broken, which is exactly what "the protocol is
  /// unsafe in this model" means.
  TimedTrace counterexample;

  [[nodiscard]] bool verified() const {
    return safety_held && all_terminals_complete && !exhausted_caps;
  }
};

class Explorer {
 public:
  /// Predicates receive the automata in their current explored state.
  using Predicate = std::function<bool(const Automaton& transmitter, const Automaton& receiver)>;

  /// The automata are cloned internally; the originals are not modified.
  /// `safety` is checked in every state, `complete` in terminal states
  /// (both quiescent/stopped, nothing in flight). Null predicates pass.
  Explorer(const Automaton& transmitter, const Automaton& receiver, ExplorerConfig config,
           Predicate safety, Predicate complete);

  [[nodiscard]] ExplorerResult run();

 private:
  const Automaton& transmitter_;
  const Automaton& receiver_;
  ExplorerConfig config_;
  Predicate safety_;
  Predicate complete_;
};

}  // namespace rstp::ioa
