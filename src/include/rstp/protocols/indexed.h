// Indexed streaming — the unbounded-alphabet escape hatch ([Ste76]-style
// sequence numbering, adapted to the lossless bounded-delay channel).
//
// Every bound in the paper depends on k = |P^tr|: effort ≥ Ω(δ·c2/log μ_k(δ)).
// This protocol shows the dependence is essential. Give each packet its
// index — payload = (i << 1) | x_i, an alphabet of size 2·|X| — and
// reordering becomes harmless without any waiting or acking: the transmitter
// streams one packet per step and stops; the receiver reassembles by index.
// Worst-case effort: exactly c2 per bit, *below every fixed-k lower bound*
// once |X| is large enough. The price is the unbounded alphabet — precisely
// the resource the paper's model charges for.
//
// Like the other solutions it is r-passive; unlike them it needs
// k ≥ 2·|X| (checked at construction).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rstp/protocols/base.h"

namespace rstp::protocols {

class IndexedTransmitter final : public Process<IndexedTransmitter, TransmitterBase> {
 public:
  explicit IndexedTransmitter(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_t^indexed"; }
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void take(const ioa::Action& /*action*/) { ++i_; }
  void receive(const ioa::Packet& /*packet*/) {}  // r-passive

  std::vector<ioa::Bit> input_;
  std::size_t i_ = 0;
};

class IndexedReceiver final : public Process<IndexedReceiver, ReceiverBase> {
 public:
  explicit IndexedReceiver(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_r^indexed"; }
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] std::string snapshot() const override;

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void receive(const ioa::Packet& packet);

  std::vector<std::uint8_t> present_;  // arrival mask by index
  std::vector<ioa::Bit> slots_;        // reassembly buffer
  std::size_t target_length_ = 0;
};

}  // namespace rstp::protocols
