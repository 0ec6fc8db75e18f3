#include "rstp/protocols/alpha.h"

#include <sstream>

#include "rstp/common/check.h"
#include "rstp/sim/simulator_impl.h"

namespace rstp::protocols {

using ioa::Action;
using ioa::ActionKind;
using ioa::Bit;
using ioa::Packet;

AlphaTransmitter::AlphaTransmitter(const ProtocolConfig& config) {
  config.validate();
  input_ = config.input;
  // The wait's only job is send separation (≥ d apart at the fastest rate);
  // the generalized model may shrink it via the override.
  wait_steps_ = config.wait_steps_override.has_value()
                    ? static_cast<std::int64_t>(*config.wait_steps_override)
                    : config.params.delta1_wait();
}

bool AlphaTransmitter::local_action(Action& out) const {
  if (j_ == 0 && i_ < input_.size()) {
    out = Action::send(Packet::to_receiver(input_[i_]));
  } else if (j_ > 0 && j_ < wait_steps_) {
    out = wait_t_action();
  } else {
    return false;  // done: finite fair execution
  }
  return true;
}

void AlphaTransmitter::take(const Action& action) {
  j_ = action.kind == ActionKind::Send ? 1 : j_ + 1;
  // Figure 1: when the idle count reaches d/c1 the next message is unlocked.
  // (When ⌈d/c1⌉ = 1 the send itself completes the round.)
  if (j_ == wait_steps_) {
    ++i_;
    j_ = 0;
  }
}

bool AlphaTransmitter::transmission_complete() const {
  // The last send has happened once the final message's wait phase began.
  return i_ >= input_.size() || (i_ + 1 == input_.size() && j_ > 0);
}

std::string AlphaTransmitter::snapshot() const {
  std::ostringstream os;
  os << "alpha_t i=" << i_ << " j=" << j_;
  return os.str();
}

AlphaReceiver::AlphaReceiver(const ProtocolConfig& config) {
  config.validate();
  received_.reserve(config.input.size());
  written_.reserve(config.input.size());
}

bool AlphaReceiver::local_action(Action& out) const {
  // Figure 1: idle_r enabled whenever k > i.
  out = written_.size() < received_.size() ? Action::write(received_[written_.size()])
                                           : idle_r_action();
  return true;
}

void AlphaReceiver::receive(const Packet& packet) {
  const std::uint32_t payload = packet.payload;
  RSTP_CHECK_LE(payload, 1u, "alpha receiver expects binary packets");
  received_.push_back(static_cast<Bit>(payload));
}

bool AlphaReceiver::quiescent() const { return written_.size() == received_.size(); }

std::string AlphaReceiver::snapshot() const {
  std::ostringstream os;
  os << "alpha_r recv=" << received_.size() << " written=" << written_.size() << " y=";
  for (Bit b : received_) os << static_cast<int>(b);
  return os.str();
}

}  // namespace rstp::protocols

RSTP_TYPED_SIMULATOR(Alpha);
