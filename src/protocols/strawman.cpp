#include "rstp/protocols/strawman.h"

#include <bit>
#include <sstream>

#include "rstp/common/check.h"
#include "rstp/sim/simulator_impl.h"

namespace rstp::protocols {

using ioa::Action;
using ioa::ActionKind;
using ioa::Bit;
using ioa::Packet;

namespace {

[[nodiscard]] std::size_t floor_log2_u32(std::uint32_t k) {
  return 31u - static_cast<std::size_t>(std::countl_zero(k));
}

}  // namespace

StrawmanTransmitter::StrawmanTransmitter(const ProtocolConfig& config) {
  config.validate();
  input_ = config.input;
  delta_ = config.params.delta1_wait();
  RSTP_CHECK_LE(delta_, kMaxBlock, "strawman block of ceil(d/c1) packets too large to be in flight");
  bits_per_symbol_ = floor_log2_u32(config.k);
  RSTP_CHECK_GE(bits_per_symbol_, std::size_t{1}, "strawman needs k >= 2");
  bits_per_block_ = bits_per_symbol_ * static_cast<std::size_t>(delta_);
  const std::size_t blocks = (input_.size() + bits_per_block_ - 1) / bits_per_block_;
  symbols_ = blocks * static_cast<std::size_t>(delta_);
}

std::uint32_t StrawmanTransmitter::symbol(std::size_t i) const {
  // Positional encoding: symbol i carries bits [i·b, (i+1)·b) of X, most
  // significant first; the tail block is zero-padded.
  std::uint32_t symbol = 0;
  for (std::size_t bit = i * bits_per_symbol_; bit < (i + 1) * bits_per_symbol_; ++bit) {
    symbol = (symbol << 1) | (bit < input_.size() ? input_[bit] : Bit{0});
  }
  return symbol;
}

bool StrawmanTransmitter::local_action(Action& out) const {
  if (c_ < delta_ && i_ < symbols_) {
    out = Action::send(Packet::to_receiver(symbol(i_)));
  } else if (c_ >= delta_) {
    out = wait_t_action();
  } else {
    return false;
  }
  return true;
}

void StrawmanTransmitter::take(const Action& action) {
  if (action.kind == ActionKind::Send) {
    ++i_;
    ++c_;
    if (c_ == delta_) {
      ++counters_.blocks_encoded;
    }
  } else {
    c_ = (c_ + 1) % (2 * delta_);
  }
}

bool StrawmanTransmitter::transmission_complete() const { return i_ >= symbols_; }

std::string StrawmanTransmitter::snapshot() const {
  std::ostringstream os;
  os << "strawman_t i=" << i_ << " c=" << c_;
  return os.str();
}

StrawmanReceiver::StrawmanReceiver(const ProtocolConfig& config) {
  config.validate();
  k_ = config.k;
  delta_ = config.params.delta1_wait();
  bits_per_symbol_ = floor_log2_u32(config.k);
  target_length_ = config.input.size();
  // decoded_ takes whole blocks of δ symbols, far more than |X| when d is
  // large, so only Y itself is sized up front.
  written_.reserve(target_length_);
}

bool StrawmanReceiver::local_action(Action& out) const {
  const bool can_write = written_.size() < decoded_.size() && written_.size() < target_length_;
  out = can_write ? Action::write(decoded_[written_.size()]) : idle_r_action();
  return true;
}

void StrawmanReceiver::receive(const Packet& packet) {
  RSTP_CHECK_LT(packet.payload, k_, "packet symbol outside the alphabet");
  arrivals_.push_back(packet.payload);
  if (arrivals_.size() == static_cast<std::size_t>(delta_)) {
    // Positional decode in ARRIVAL order — the deliberate flaw: only works
    // if the channel preserved the send order of the block.
    for (std::uint32_t symbol : arrivals_) {
      for (std::size_t bit = bits_per_symbol_; bit-- > 0;) {
        decoded_.push_back(static_cast<Bit>((symbol >> bit) & 1u));
      }
    }
    arrivals_.clear();
    ++counters_.blocks_decoded;
  }
}

bool StrawmanReceiver::quiescent() const {
  return written_.size() >= target_length_ ||
         (written_.size() == decoded_.size() && arrivals_.empty());
}

std::string StrawmanReceiver::snapshot() const {
  std::ostringstream os;
  os << "strawman_r written=" << written_.size() << " arrivals=";
  for (const std::uint32_t symbol : arrivals_) os << symbol << ',';
  os << " y=";
  for (const Bit b : decoded_) os << static_cast<int>(b);
  return os.str();
}

}  // namespace rstp::protocols

RSTP_TYPED_SIMULATOR(Strawman);
