#include "rstp/protocols/indexed.h"

#include <sstream>

#include "rstp/common/check.h"
#include "rstp/sim/simulator_impl.h"

namespace rstp::protocols {

using ioa::Action;
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

bool IndexedTransmitter::local_action(Action& out) const {
  if (i_ >= input_.size()) return false;
  const auto payload =
      static_cast<std::uint32_t>((i_ << 1) | static_cast<std::size_t>(input_[i_]));
  out = Action::send(Packet::to_receiver(payload));
  return true;
}

bool IndexedTransmitter::transmission_complete() const { return i_ >= input_.size(); }

std::string IndexedTransmitter::snapshot() const {
  std::ostringstream os;
  os << "indexed_t i=" << i_;
  return os.str();
}

IndexedReceiver::IndexedReceiver(const ProtocolConfig& config)
    : present_(config.input.size(), 0),
      slots_(config.input.size(), 0),
      target_length_(config.input.size()) {
  config.validate();
  check_alphabet_covers(config);
  written_.reserve(target_length_);
}

bool IndexedReceiver::local_action(Action& out) const {
  const std::size_t w = written_.size();
  out = w < target_length_ && present_[w] != 0 ? Action::write(slots_[w]) : idle_r_action();
  return true;
}

void IndexedReceiver::receive(const Packet& packet) {
  const std::size_t index = packet.payload >> 1;
  const Bit bit = static_cast<Bit>(packet.payload & 1u);
  RSTP_CHECK_LT(index, target_length_, "packet index out of range");
  RSTP_CHECK_EQ(present_[index], 0, "duplicate index: channel model violated");
  present_[index] = 1;
  slots_[index] = bit;
}

bool IndexedReceiver::quiescent() const {
  const std::size_t w = written_.size();
  return w >= target_length_ || present_[w] == 0;  // no write currently possible
}

std::string IndexedReceiver::snapshot() const {
  std::ostringstream os;
  // One character per index: its bit once arrived, '-' before.
  os << "indexed_r written=" << written_.size() << " slots=";
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    os << (present_[i] != 0 ? static_cast<char>('0' + slots_[i]) : '-');
  }
  return os.str();
}

}  // namespace rstp::protocols

RSTP_TYPED_SIMULATOR(Indexed);
