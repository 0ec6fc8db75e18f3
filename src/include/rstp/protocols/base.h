// Shared protocol machinery: configuration, transmitter/receiver interfaces,
// and the internal-action vocabulary common to all RSTP solutions.
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
/// Each transition is written once: an automaton names its enabled local
/// action in local_action(), takes it in step() and takes inputs in
/// receive(). deliver() and apply() only route: deliver() checks the
/// packet's direction and hands it to receive(); apply() sends an input to
/// receive() and a local action to step() once it is checked to be the
/// enabled one.
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
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const final {
    ioa::Action action;
    if (!local_action(action)) return std::nullopt;
    return action;
  }

  [[nodiscard]] bool accepts_input(const ioa::Action& action) const final {
    return action.kind == ioa::ActionKind::Recv && action.packet.direction == kInputs;
  }

  /// The one direction check, then the input transition.
  bool deliver(const ioa::Packet& packet) final {
    RSTP_CHECK(packet.direction == kInputs, "delivered packet not an input of its destination");
    receive(packet);
    return quiescent();
  }

  void apply(const ioa::Action& action) final {
    if (accepts_input(action)) {
      receive(action.packet);
      return;
    }
    RSTP_CHECK(enabled_local() == action, "action not enabled");
    ioa::LocalStep taken;
    step(taken);
  }

  bool step(ioa::LocalStep& out) override = 0;

  [[nodiscard]] const obs::ProtocolCounters& protocol_counters() const final {
    return counters_;
  }
  [[nodiscard]] const obs::CounterSource* counter_source() const final { return this; }

 protected:
  /// Writes the enabled local action into `out` and returns true, or returns
  /// false and leaves `out` alone when the automaton is stopped. step()
  /// passes its LocalStep's action: an optional<Action> returned by value is
  /// built on the stack and copied out, a store-forwarding stall per step.
  [[nodiscard]] virtual bool local_action(ioa::Action& out) const = 0;

  /// The input transition recv(packet).
  virtual void receive(const ioa::Packet& packet) = 0;

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

/// A_r: accepts t→r packets as inputs and exposes the output tape Y.
class ReceiverBase : public ProcessBase<ioa::Packet::Direction::TransmitterToReceiver> {
 public:
  /// Y so far: the sequence of messages written (in write order).
  [[nodiscard]] virtual const std::vector<ioa::Bit>& output() const = 0;
};

}  // namespace rstp::protocols
