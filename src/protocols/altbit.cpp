#include "rstp/protocols/altbit.h"

#include <sstream>

#include "rstp/common/check.h"

namespace rstp::protocols {

using ioa::Action;
using ioa::ActionKind;
using ioa::Bit;
using ioa::Packet;

AltBitTransmitter::AltBitTransmitter(const ProtocolConfig& config) {
  config.validate();
  input_ = config.input;
}

std::optional<Action> AltBitTransmitter::enabled_local() const {
  if (i_ >= input_.size()) {
    return std::nullopt;
  }
  if (phase_ == Phase::Sending) {
    const std::uint32_t seq = static_cast<std::uint32_t>(i_) & 1u;
    const std::uint32_t payload = static_cast<std::uint32_t>(input_[i_]) | (seq << 1);
    return Action::send(Packet::to_receiver(payload));
  }
  return idle_t_action();  // awaiting the ack for message i_
}

void AltBitTransmitter::apply(const Action& action) {
  if (accepts_input(action)) {
    // The channel neither loses nor duplicates, so the only ack that can be
    // in flight is the one for the outstanding message; verify its seq bit.
    RSTP_CHECK(phase_ == Phase::AwaitingAck, "ack with no outstanding message");
    const std::uint32_t seq = static_cast<std::uint32_t>(i_) & 1u;
    RSTP_CHECK_EQ(action.packet.payload, seq, "alternating-bit ack sequence mismatch");
    ++counters_.acks_observed;
    ++i_;
    phase_ = Phase::Sending;
    return;
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  if (action.kind == ActionKind::Send) {
    phase_ = Phase::AwaitingAck;
  }
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

std::unique_ptr<ioa::Automaton> AltBitTransmitter::clone() const {
  return std::make_unique<AltBitTransmitter>(*this);
}

AltBitReceiver::AltBitReceiver(const ProtocolConfig& config) { config.validate(); }

std::optional<Action> AltBitReceiver::enabled_local() const {
  if (!ack_queue_.empty()) {
    return Action::send(Packet::to_transmitter(ack_queue_.front()));
  }
  if (written_.size() < accepted_.size()) {
    return Action::write(accepted_[written_.size()]);
  }
  return idle_r_action();
}

void AltBitReceiver::apply(const Action& action) {
  if (accepts_input(action)) {
    const std::uint32_t payload = action.packet.payload;
    RSTP_CHECK_LE(payload, 3u, "altbit data payload out of range");
    const Bit bit = static_cast<Bit>(payload & 1u);
    const std::uint32_t seq = payload >> 1;
    // Stop-and-wait over a lossless channel: every arrival must carry the
    // expected sequence bit; a mismatch means the channel model was violated.
    RSTP_CHECK_EQ(seq, expected_seq_, "alternating-bit data sequence mismatch");
    accepted_.push_back(bit);
    expected_seq_ ^= 1u;
    ack_queue_.push_back(seq);
    return;
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  switch (action.kind) {
    case ActionKind::Send:
      ack_queue_.erase(ack_queue_.begin());
      ++counters_.acks_sent;
      break;
    case ActionKind::Write:
      written_.push_back(action.message);
      break;
    case ActionKind::Internal:
      break;
    case ActionKind::Recv:
      RSTP_UNREACHABLE("recv handled as input");
  }
}

bool AltBitReceiver::quiescent() const {
  return ack_queue_.empty() && written_.size() == accepted_.size();
}

std::string AltBitReceiver::snapshot() const {
  std::ostringstream os;
  os << "altbit_r accepted=" << accepted_.size() << " written=" << written_.size()
     << " acks_pending=" << ack_queue_.size() << " expect=" << expected_seq_;
  return os.str();
}

std::unique_ptr<ioa::Automaton> AltBitReceiver::clone() const {
  return std::make_unique<AltBitReceiver>(*this);
}

}  // namespace rstp::protocols
