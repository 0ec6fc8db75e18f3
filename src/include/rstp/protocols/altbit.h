// Stop-and-wait / alternating-bit baseline ([BSW69], cited in §1).
//
// The classic comparator: one message bit per round trip. The transmitter
// sends (x_i, seq) where seq = i mod 2, then idles until the ack carrying
// seq arrives; the receiver writes each accepted bit and acknowledges every
// packet with its sequence bit. On this channel (lossless, duplication-free,
// delay ≤ d) a single outstanding packet needs no retransmission, so the
// protocol degenerates to pure stop-and-wait; the alternating bit is kept
// and *checked* at both ends as a protocol-fidelity assertion.
//
// Purpose in this repository: the E8 baseline. Its worst-case effort is
// ~2d + 2c2 per bit (one round trip each), against which the multiset-block
// protocols' ~(3d + c2)/B per bit shows the win factor of block encoding.
//
// Packet formats: data payload = bit | (seq << 1) ∈ {0,1,2,3} (so |P^tr| = 4);
// ack payload = seq ∈ {0,1}.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rstp/protocols/base.h"

namespace rstp::protocols {

class AltBitTransmitter final : public Process<AltBitTransmitter, TransmitterBase> {
 public:
  explicit AltBitTransmitter(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_t^altbit"; }
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void take(const ioa::Action& action);
  void receive(const ioa::Packet& packet);

  enum class Phase : std::uint8_t { Sending, AwaitingAck };

  std::vector<ioa::Bit> input_;
  std::size_t i_ = 0;
  Phase phase_ = Phase::Sending;
};

class AltBitReceiver final : public Process<AltBitReceiver, ReceiverBase> {
 public:
  explicit AltBitReceiver(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_r^altbit"; }
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] std::string snapshot() const override;

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void take(const ioa::Action& action);
  void receive(const ioa::Packet& packet);

  std::vector<ioa::Bit> accepted_;       // bits accepted, pending write
  std::vector<std::uint32_t> ack_queue_;  // seq bits to acknowledge, FIFO
  std::uint32_t expected_seq_ = 0;
};

}  // namespace rstp::protocols
