#include "rstp/protocols/strawman.h"

#include <bit>
#include <sstream>

#include "rstp/common/check.h"

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
  delta_ = config.params.delta1_wait();
  bits_per_symbol_ = floor_log2_u32(config.k);
  RSTP_CHECK_GE(bits_per_symbol_, std::size_t{1}, "strawman needs k >= 2");
  bits_per_block_ = bits_per_symbol_ * static_cast<std::size_t>(delta_);

  // Positional encoding: consecutive groups of bits_per_symbol_ bits map to
  // one symbol; zero-pad the tail block.
  const std::size_t n = config.input.size();
  const std::size_t blocks = (n + bits_per_block_ - 1) / bits_per_block_;
  stream_.reserve(blocks * static_cast<std::size_t>(delta_));
  for (std::size_t b = 0; b < blocks; ++b) {
    for (std::int64_t s = 0; s < delta_; ++s) {
      std::uint32_t symbol = 0;
      for (std::size_t bit = 0; bit < bits_per_symbol_; ++bit) {
        const std::size_t idx =
            b * bits_per_block_ + static_cast<std::size_t>(s) * bits_per_symbol_ + bit;
        const Bit value = idx < n ? config.input[idx] : Bit{0};
        symbol = (symbol << 1) | value;
      }
      stream_.push_back(symbol);
    }
  }
}

bool StrawmanTransmitter::local_action(Action& out) const {
  if (c_ < delta_ && i_ < stream_.size()) {
    out = Action::send(Packet::to_receiver(stream_[i_]));
  } else if (c_ >= delta_) {
    out = wait_t_action();
  } else {
    return false;
  }
  return true;
}

bool StrawmanTransmitter::step(ioa::LocalStep& out) {
  if (!local_action(out.action)) return false;
  if (out.action.kind == ActionKind::Send) {
    ++i_;
    ++c_;
    if (c_ == delta_) {
      ++counters_.blocks_encoded;
    }
  } else {
    c_ = (c_ + 1) % (2 * delta_);
  }
  out.quiescent = quiescent();
  return true;
}

bool StrawmanTransmitter::transmission_complete() const { return i_ >= stream_.size(); }

std::string StrawmanTransmitter::snapshot() const {
  std::ostringstream os;
  os << "strawman_t i=" << i_ << " c=" << c_;
  return os.str();
}

std::unique_ptr<ioa::Automaton> StrawmanTransmitter::clone() const {
  return std::make_unique<StrawmanTransmitter>(*this);
}

StrawmanReceiver::StrawmanReceiver(const ProtocolConfig& config) {
  config.validate();
  k_ = config.k;
  delta_ = config.params.delta1_wait();
  bits_per_symbol_ = floor_log2_u32(config.k);
  target_length_ = config.input.size();
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

bool StrawmanReceiver::step(ioa::LocalStep& out) {
  if (!local_action(out.action)) return false;
  if (out.action.kind == ActionKind::Write) written_.push_back(out.action.message);
  out.quiescent = quiescent();
  return true;
}

bool StrawmanReceiver::quiescent() const {
  return written_.size() >= target_length_ ||
         (written_.size() == decoded_.size() && arrivals_.empty());
}

std::string StrawmanReceiver::snapshot() const {
  std::ostringstream os;
  os << "strawman_r decoded=" << decoded_.size() << " written=" << written_.size()
     << " pending=" << arrivals_.size();
  return os.str();
}

std::unique_ptr<ioa::Automaton> StrawmanReceiver::clone() const {
  return std::make_unique<StrawmanReceiver>(*this);
}

}  // namespace rstp::protocols
