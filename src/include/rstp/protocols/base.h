// Shared protocol machinery: configuration, transmitter/receiver interfaces,
// the one template that writes every automaton's transitions, and the
// internal-action vocabulary common to all RSTP solutions.
//
// A solution to RSTP (paper §4) is a pair (A_t, A_r). Every transmitter here
// is given the whole input sequence X up front (as in Figures 1/3/4: "we
// assume that A_t is given X") and every receiver is given |X| — the paper's
// receivers likewise implicitly know when the job is done ("A_r has only to
// write the elements of X"); operationally the length lets block receivers
// discard padding bits and lets the simulator detect quiescence.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/core/params.h"
#include "rstp/ioa/automaton.h"
#include "rstp/obs/run_metrics.h"

namespace rstp::protocols {

class BlockPlanner;

/// Everything needed to instantiate one (A_t, A_r) pair.
struct ProtocolConfig {
  core::TimingParams params{};
  /// k: the transmitter packet alphabet size, |P^tr| (>= 2).
  std::uint32_t k = 2;
  /// X: the input sequence of message bits.
  std::vector<ioa::Bit> input;

  /// Overrides for the block protocols' derived sizes (both must agree
  /// between the transmitter and receiver of a pair):
  ///   * β: block = packets per block (default ⌈d/c1⌉), wait = idle steps
  ///     between blocks (default ⌈d/c1⌉). Setting wait below ⌈d/c1⌉ breaks
  ///     the block-separation argument — used by the ablation experiments.
  ///   * γ: block = packets per block / acks per round (default ⌊d/c2⌋).
  /// They also serve the §7 generalized model, where the sizes derive from
  /// per-process rates and a delivery window rather than from `params`.
  std::optional<std::uint32_t> block_size_override;
  std::optional<std::uint32_t> wait_steps_override;

  /// Window size for the windowed-γ extension: how many blocks may be in
  /// flight, each tagged with its block index mod W (alphabet k must be a
  /// multiple of W, leaving k/W ≥ 2 data symbols). Default 2. W = 1
  /// degenerates to plain γ's stop-and-wait block rhythm.
  std::optional<std::uint32_t> window_override;

  /// A^β/A^γ's block plan (protocols/block_planner.h), shared by both sides.
  /// est::run_estimated sets a live one; when null, β/γ build a fixed plan
  /// from `params` and the overrides. Only Beta and Gamma accept it;
  /// validate() ignores it.
  std::shared_ptr<BlockPlanner> planner;

  /// Validates params, k >= 2, positive overrides, and binary input.
  void validate() const;
};

// The shared internal actions (ioa::kWaitT, kIdleR, kIdleT). Inline, as is
// ProcessBase::accepts_input below: out of line, each factory returns the
// Action through memory field by field and the caller reloads it in wider
// halves, a store-forwarding stall on every internal step.
[[nodiscard]] inline ioa::Action wait_t_action() { return ioa::Action::internal(ioa::kWaitT); }
[[nodiscard]] inline ioa::Action idle_r_action() { return ioa::Action::internal(ioa::kIdleR); }
[[nodiscard]] inline ioa::Action idle_t_action() { return ioa::Action::internal(ioa::kIdleT); }

/// What A_t and A_r share, for a process whose inputs are the packets
/// travelling in direction `kInputs`.
///
/// The obs::CounterSource base is the uniform stat-hook: implementations bump
/// `counters_` at their semantic milestones (block fully sent, ack consumed)
/// and every protocol reports through the same RunMetrics fields. Protocols
/// with no block/ack structure simply leave the counters at zero.
/// counter_source() returns this, so the simulator finds the counters
/// without a dynamic_cast.
template <ioa::Packet::Direction kInputs>
class ProcessBase : public ioa::Automaton, public obs::CounterSource {
 public:
  /// The direction of the packets this process takes as inputs.
  static constexpr ioa::Packet::Direction kInputDirection = kInputs;

  [[nodiscard]] bool accepts_input(const ioa::Action& action) const final {
    return action.kind == ioa::ActionKind::Recv && action.packet.direction == kInputs;
  }

  [[nodiscard]] const obs::ProtocolCounters& protocol_counters() const final {
    return counters_;
  }
  [[nodiscard]] const obs::CounterSource* counter_source() const final { return this; }

 protected:
  obs::ProtocolCounters counters_;
};

/// A_t: accepts r→t packets as inputs and reports when its last send(p) is
/// behind it (used by the effort harness and by tests).
class TransmitterBase : public ProcessBase<ioa::Packet::Direction::ReceiverToTransmitter> {
 public:
  /// True once the automaton will never perform another send.
  [[nodiscard]] virtual bool transmission_complete() const = 0;

  /// By default a transmitter is done once its last send is behind it.
  [[nodiscard]] bool quiescent() const override { return transmission_complete(); }
};

/// A_r: accepts t→r packets as inputs and writes the output tape Y.
class ReceiverBase : public ProcessBase<ioa::Packet::Direction::TransmitterToReceiver> {
 public:
  /// Y so far: the sequence of messages written (in write order).
  [[nodiscard]] const std::vector<ioa::Bit>& output() const { return written_; }

 protected:
  std::vector<ioa::Bit> written_;  // Y
};

/// Each transition of automaton D, written once. D is a deterministic
/// automaton (§5) given by three plain members that Process calls directly:
///
///   * `bool local_action(ioa::Action& out) const` writes the one enabled
///     local action into `out` and returns true, or returns false and leaves
///     `out` alone when D is stopped;
///   * `void take(const ioa::Action& action)`, that action's effect. A
///     receiver's write onto Y is Process's, so D declares take() only where
///     an action does more (the default does nothing);
///   * `void receive(const ioa::Packet& packet)`, the input transition
///     recv(packet).
///
/// step() takes the enabled action and reports it with the quiescence after
/// it; deliver() checks the packet's direction and hands it to receive();
/// apply() sends an input to receive() and a local action to step() once it
/// is checked to be the enabled one. Quiescence is read from D directly: its
/// own quiescent(), or for a transmitter that keeps TransmitterBase's
/// default, transmission_complete(). D is final, so none of these is an
/// indirect call in a simulator instance typed on D.
template <class D, class Base>
class Process : public Base {
 public:
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const final {
    ioa::Action action;
    if (!self().local_action(action)) return std::nullopt;
    return action;
  }

  /// Out of line: inlined into the typed simulator's step path, α's event
  /// loop ran about 10% slower (bench_layers `mega_narrow`; docs/PERF.md).
  [[gnu::noinline]] bool step(ioa::LocalStep& out) final {
    if (!self().local_action(out.action)) return false;
    if constexpr (std::is_same_v<Base, ReceiverBase>) {
      if (out.action.kind == ioa::ActionKind::Write) this->written_.push_back(out.action.message);
    }
    self().take(out.action);
    out.quiescent = quiescent_now();
    return true;
  }

  /// The one direction check, then the input transition.
  bool deliver(const ioa::Packet& packet) final {
    RSTP_CHECK(packet.direction == Base::kInputDirection,
               "delivered packet not an input of its destination");
    self().receive(packet);
    return quiescent_now();
  }

  void apply(const ioa::Action& action) final {
    if (this->accepts_input(action)) {
      self().receive(action.packet);
      return;
    }
    RSTP_CHECK(enabled_local() == action, "action not enabled");
    ioa::LocalStep taken;
    step(taken);
  }

  /// A copy of D. β's and γ's copies share their BlockPlanner, which a clone
  /// may grow: a fixed plan is a pure function of (X, δ), and the planner's
  /// deque never moves a plan, so every clone reads the same plans however
  /// their runs interleave.
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const final {
    return std::make_unique<D>(self());
  }

 protected:
  /// No effect beyond Process's own (a receiver's write onto Y).
  void take(const ioa::Action& /*action*/) {}

 private:
  [[nodiscard]] const D& self() const { return static_cast<const D&>(*this); }
  [[nodiscard]] D& self() { return static_cast<D&>(*this); }

  /// quiescent() after a transition, as a direct call on D.
  [[nodiscard]] bool quiescent_now() const {
    static_assert(std::is_final_v<D>, "a process's calls on D are direct only when D is final");
    if constexpr (std::is_same_v<decltype(&D::quiescent), decltype(&TransmitterBase::quiescent)>) {
      return self().transmission_complete();
    } else {
      return self().quiescent();
    }
  }
};

}  // namespace rstp::protocols
