// A^α — the simple r-passive solution (paper §4, Figure 1).
//
// The transmitter sends each message bit as one packet, then performs
// ⌈d/c1⌉ − 1 wait steps before the next send, so consecutive sends are at
// least ⌈d/c1⌉ steps ≥ d time apart even at the fastest rate c1. Packets are
// therefore delivered in send order and the receiver can write each packet's
// payload directly. Effort: exactly ⌈d/c1⌉·c2 per message in the worst case
// (= d·c2/c1 when c1 | d, the paper's value).
//
// The receiver stores arrivals in an array and writes them one per step,
// idling when it has nothing to do — a direct transcription of Figure 1,
// including the unbounded array the paper's Remark allows for simplicity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rstp/protocols/base.h"

namespace rstp::protocols {

class AlphaTransmitter final : public Process<AlphaTransmitter, TransmitterBase> {
 public:
  explicit AlphaTransmitter(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_t^alpha"; }
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;

  /// Steps from one send to the next (⌈d/c1⌉); exposed for tests/benches.
  [[nodiscard]] std::int64_t steps_per_message() const { return wait_steps_; }

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void take(const ioa::Action& action);
  // r-passive: inputs (none are ever sent) are ignored.
  void receive(const ioa::Packet& /*packet*/) {}

  std::vector<ioa::Bit> input_;   // X
  std::int64_t wait_steps_ = 0;   // ⌈d/c1⌉
  std::size_t i_ = 0;             // next message index
  std::int64_t j_ = 0;            // idle-step counter (Figure 1's j)
};

class AlphaReceiver final : public Process<AlphaReceiver, ReceiverBase> {
 public:
  explicit AlphaReceiver(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_r^alpha"; }
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] std::string snapshot() const override;

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void receive(const ioa::Packet& packet);

  std::vector<ioa::Bit> received_;  // Figure 1's y_1, y_2, ...
};

}  // namespace rstp::protocols
