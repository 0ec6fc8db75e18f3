#include "rstp/protocols/altbit.h"

#include <sstream>

#include "rstp/common/check.h"
#include "rstp/sim/simulator_impl.h"

namespace rstp::protocols {

using ioa::Action;
using ioa::ActionKind;
using ioa::Bit;
using ioa::Packet;

AltBitTransmitter::AltBitTransmitter(const ProtocolConfig& config) {
  config.validate();
  input_ = config.input;
}

bool AltBitTransmitter::local_action(Action& out) const {
  if (i_ >= input_.size()) return false;
  if (phase_ == Phase::Sending) {
    const std::uint32_t seq = static_cast<std::uint32_t>(i_) & 1u;
    const std::uint32_t payload = static_cast<std::uint32_t>(input_[i_]) | (seq << 1);
    out = Action::send(Packet::to_receiver(payload));
  } else {
    out = idle_t_action();  // awaiting the ack for message i_
  }
  return true;
}

void AltBitTransmitter::receive(const Packet& packet) {
  // The channel neither loses nor duplicates, so the only ack that can be
  // in flight is the one for the outstanding message; verify its seq bit.
  RSTP_CHECK(phase_ == Phase::AwaitingAck, "ack with no outstanding message");
  const std::uint32_t seq = static_cast<std::uint32_t>(i_) & 1u;
  RSTP_CHECK_EQ(packet.payload, seq, "alternating-bit ack sequence mismatch");
  ++counters_.acks_observed;
  ++i_;
  phase_ = Phase::Sending;
}

void AltBitTransmitter::take(const Action& action) {
  if (action.kind == ActionKind::Send) phase_ = Phase::AwaitingAck;
}

bool AltBitTransmitter::quiescent() const { return i_ >= input_.size(); }

bool AltBitTransmitter::transmission_complete() const {
  return i_ >= input_.size() || (i_ + 1 == input_.size() && phase_ == Phase::AwaitingAck);
}

std::string AltBitTransmitter::snapshot() const {
  std::ostringstream os;
  os << "altbit_t i=" << i_ << " phase=" << (phase_ == Phase::Sending ? "send" : "await");
  return os.str();
}

AltBitReceiver::AltBitReceiver(const ProtocolConfig& config) {
  config.validate();
  accepted_.reserve(config.input.size());
  written_.reserve(config.input.size());
}

bool AltBitReceiver::local_action(Action& out) const {
  if (!ack_queue_.empty()) {
    out = Action::send(Packet::to_transmitter(ack_queue_.front()));
  } else if (written_.size() < accepted_.size()) {
    out = Action::write(accepted_[written_.size()]);
  } else {
    out = idle_r_action();
  }
  return true;
}

void AltBitReceiver::receive(const Packet& packet) {
  const std::uint32_t payload = packet.payload;
  RSTP_CHECK_LE(payload, 3u, "altbit data payload out of range");
  const Bit bit = static_cast<Bit>(payload & 1u);
  const std::uint32_t seq = payload >> 1;
  // Stop-and-wait over a lossless channel: every arrival must carry the
  // expected sequence bit; a mismatch means the channel model was violated.
  RSTP_CHECK_EQ(seq, expected_seq_, "alternating-bit data sequence mismatch");
  accepted_.push_back(bit);
  expected_seq_ ^= 1u;
  ack_queue_.push_back(seq);
}

void AltBitReceiver::take(const Action& action) {
  if (action.kind == ActionKind::Send) {
    ack_queue_.erase(ack_queue_.begin());
    ++counters_.acks_sent;
  }
}

bool AltBitReceiver::quiescent() const {
  return ack_queue_.empty() && written_.size() == accepted_.size();
}

std::string AltBitReceiver::snapshot() const {
  std::ostringstream os;
  os << "altbit_r written=" << written_.size() << " expect=" << expected_seq_ << " acks=";
  for (const std::uint32_t seq : ack_queue_) os << seq;
  os << " y=";
  for (const Bit b : accepted_) os << static_cast<int>(b);
  return os.str();
}

}  // namespace rstp::protocols

RSTP_TYPED_SIMULATOR(AltBit);
