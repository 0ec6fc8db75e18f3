#include "rstp/protocols/indexed.h"

#include <sstream>

#include "rstp/common/check.h"

namespace rstp::protocols {

using ioa::Action;
using ioa::ActionKind;
using ioa::Bit;
using ioa::Packet;

namespace {

void check_alphabet_covers(const ProtocolConfig& config) {
  // Payload (i << 1) | bit needs 2·|X| symbols.
  RSTP_CHECK_GE(static_cast<std::size_t>(config.k), 2 * std::max<std::size_t>(1, config.input.size()),
                "indexed streaming needs an alphabet of at least 2*|X| symbols");
}

}  // namespace

IndexedTransmitter::IndexedTransmitter(const ProtocolConfig& config) {
  config.validate();
  check_alphabet_covers(config);
  input_ = config.input;
}

std::optional<Action> IndexedTransmitter::enabled_local() const {
  if (i_ < input_.size()) {
    const auto payload =
        static_cast<std::uint32_t>((i_ << 1) | static_cast<std::size_t>(input_[i_]));
    return Action::send(Packet::to_receiver(payload));
  }
  return std::nullopt;
}

void IndexedTransmitter::apply(const Action& action) {
  if (accepts_input(action)) {
    return;  // r-passive
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  ++i_;
}

bool IndexedTransmitter::quiescent() const { return i_ >= input_.size(); }

bool IndexedTransmitter::transmission_complete() const { return i_ >= input_.size(); }

std::string IndexedTransmitter::snapshot() const {
  std::ostringstream os;
  os << "indexed_t i=" << i_;
  return os.str();
}

std::unique_ptr<ioa::Automaton> IndexedTransmitter::clone() const {
  return std::make_unique<IndexedTransmitter>(*this);
}

IndexedReceiver::IndexedReceiver(const ProtocolConfig& config)
    : present_(config.input.size(), 0),
      slots_(config.input.size(), 0),
      target_length_(config.input.size()) {
  config.validate();
  check_alphabet_covers(config);
}

std::optional<Action> IndexedReceiver::enabled_local() const {
  const std::size_t w = written_.size();
  if (w < target_length_ && present_[w] != 0) {
    return Action::write(slots_[w]);
  }
  return idle_r_action();
}

void IndexedReceiver::apply(const Action& action) {
  if (accepts_input(action)) {
    const std::size_t index = action.packet.payload >> 1;
    const Bit bit = static_cast<Bit>(action.packet.payload & 1u);
    RSTP_CHECK_LT(index, target_length_, "packet index out of range");
    RSTP_CHECK_EQ(present_[index], 0, "duplicate index: channel model violated");
    present_[index] = 1;
    slots_[index] = bit;
    return;
  }
  const std::optional<Action> enabled = enabled_local();
  RSTP_CHECK(enabled.has_value() && *enabled == action, "action not enabled");
  if (action.kind == ActionKind::Write) {
    written_.push_back(action.message);
  }
}

bool IndexedReceiver::quiescent() const {
  const std::size_t w = written_.size();
  return w >= target_length_ || present_[w] == 0;  // no write currently possible
}

std::string IndexedReceiver::snapshot() const {
  std::ostringstream os;
  os << "indexed_r written=" << written_.size() << " mask=";
  for (const auto p : present_) os << int{p};
  return os.str();
}

std::unique_ptr<ioa::Automaton> IndexedReceiver::clone() const {
  return std::make_unique<IndexedReceiver>(*this);
}

}  // namespace rstp::protocols
