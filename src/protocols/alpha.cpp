#include "rstp/protocols/alpha.h"

#include <sstream>

#include "rstp/common/check.h"

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

std::optional<Action> AlphaTransmitter::enabled_local() const {
  if (j_ == 0 && i_ < input_.size()) {
    return Action::send(Packet::to_receiver(input_[i_]));
  }
  if (j_ > 0 && j_ < wait_steps_) {
    return wait_t_action();
  }
  return std::nullopt;  // done: finite fair execution
}

void AlphaTransmitter::apply(const Action& action) {
  if (accepts_input(action)) {
    return;  // A^alpha is r-passive; inputs (none are ever sent) are ignored
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  if (action.kind == ActionKind::Send) {
    j_ = 1;
  } else {
    ++j_;
  }
  // Figure 1: when the idle count reaches d/c1 the next message is unlocked.
  // (When ⌈d/c1⌉ = 1 the send itself completes the round.)
  if (j_ == wait_steps_) {
    ++i_;
    j_ = 0;
  }
}

bool AlphaTransmitter::quiescent() const { return transmission_complete(); }

bool AlphaTransmitter::transmission_complete() const {
  // The last send has happened once the final message's wait phase began.
  return i_ >= input_.size() || (i_ + 1 == input_.size() && j_ > 0);
}

std::string AlphaTransmitter::snapshot() const {
  std::ostringstream os;
  os << "alpha_t i=" << i_ << " j=" << j_;
  return os.str();
}

std::unique_ptr<ioa::Automaton> AlphaTransmitter::clone() const {
  return std::make_unique<AlphaTransmitter>(*this);
}

AlphaReceiver::AlphaReceiver(const ProtocolConfig& config) { config.validate(); }

std::optional<Action> AlphaReceiver::enabled_local() const {
  if (written_.size() < received_.size()) {
    return Action::write(received_[written_.size()]);
  }
  return idle_r_action();  // Figure 1: idle_r enabled whenever k > i
}

void AlphaReceiver::apply(const Action& action) {
  if (accepts_input(action)) {
    const std::uint32_t payload = action.packet.payload;
    RSTP_CHECK_LE(payload, 1u, "alpha receiver expects binary packets");
    received_.push_back(static_cast<Bit>(payload));
    return;
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  if (action.kind == ActionKind::Write) {
    written_.push_back(action.message);
  }
  // idle_r has no effect.
}

bool AlphaReceiver::quiescent() const { return written_.size() == received_.size(); }

std::string AlphaReceiver::snapshot() const {
  std::ostringstream os;
  os << "alpha_r recv=" << received_.size() << " written=" << written_.size() << " y=";
  for (Bit b : received_) os << static_cast<int>(b);
  return os.str();
}

std::unique_ptr<ioa::Automaton> AlphaReceiver::clone() const {
  return std::make_unique<AlphaReceiver>(*this);
}

}  // namespace rstp::protocols
