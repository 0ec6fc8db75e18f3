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

class IndexedTransmitter final : public TransmitterBase {
 public:
  explicit IndexedTransmitter(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_t^indexed"; }
  bool step(ioa::LocalStep& out) override;
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override;

 private:
  [[nodiscard]] bool local_action(ioa::Action& out) const override;
  void receive(const ioa::Packet& /*packet*/) override {}  // r-passive

  std::vector<ioa::Bit> input_;
  std::size_t i_ = 0;
};

class IndexedReceiver final : public ReceiverBase {
 public:
  explicit IndexedReceiver(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_r^indexed"; }
  bool step(ioa::LocalStep& out) override;
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] const std::vector<ioa::Bit>& output() const override { return written_; }
  [[nodiscard]] std::string snapshot() const override;
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override;

 private:
  [[nodiscard]] bool local_action(ioa::Action& out) const override;
  void receive(const ioa::Packet& packet) override;

  std::vector<std::uint8_t> present_;  // arrival mask by index
  std::vector<ioa::Bit> slots_;        // reassembly buffer
  std::vector<ioa::Bit> written_;      // Y
  std::size_t target_length_ = 0;
};

}  // namespace rstp::protocols
