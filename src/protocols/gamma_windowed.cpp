#include "rstp/protocols/gamma_windowed.h"

#include <algorithm>
#include <sstream>

#include "rstp/combinatorics/binomial.h"
#include "rstp/common/check.h"
#include "rstp/sim/simulator_impl.h"

namespace rstp::protocols {

using combinatorics::BlockCoder;
using ioa::Action;
using ioa::ActionKind;
using ioa::Bit;
using ioa::Packet;

namespace {

struct WindowLayout {
  std::uint32_t window;   // W
  std::uint32_t symbols;  // k / W
};

WindowLayout validated_layout(std::uint32_t k, std::uint32_t window) {
  RSTP_CHECK_GE(window, 1u, "windowed gamma needs a window of at least one block");
  RSTP_CHECK_GE(k, 2 * window, "windowed gamma needs k >= 2*W (>= 2 data symbols per tag)");
  RSTP_CHECK_EQ(k % window, 0u, "windowed gamma needs W | k");
  return WindowLayout{window, k / window};
}

std::uint32_t window_of(const ProtocolConfig& config) {
  return config.window_override.value_or(kDefaultWindow);
}

}  // namespace

double windowed_gamma_upper(const core::TimingParams& params, std::uint32_t k,
                            std::uint32_t window) {
  params.validate();
  const WindowLayout layout = validated_layout(k, window);
  const auto delta2 = static_cast<std::uint32_t>(params.delta2());
  const std::size_t bits = combinatorics::floor_log2_mu(layout.symbols, delta2);
  RSTP_CHECK_GE(bits, std::size_t{1}, "tagged alphabet too small to carry data");
  const auto c2 = static_cast<double>(params.c2.ticks());
  const auto d = static_cast<double>(params.d.ticks());
  const double block_send = static_cast<double>(delta2) * c2;
  // W blocks complete per window: either the pipeline is send-limited
  // (W blocks of sends back-to-back) or round-trip-limited (one block's
  // sends + last delivery + ack step + ack return + next-send step).
  const double period =
      std::max(static_cast<double>(window) * block_send, block_send + 2.0 * d + 2.0 * c2);
  return period / (static_cast<double>(window) * static_cast<double>(bits));
}

WindowedGammaTransmitter::WindowedGammaTransmitter(const ProtocolConfig& config) {
  config.validate();
  const WindowLayout layout = validated_layout(config.k, window_of(config));
  window_ = layout.window;
  symbols_ = layout.symbols;
  acks_.assign(window_, 0);
  delta2_ = config.block_size_override.has_value()
                ? static_cast<std::int64_t>(*config.block_size_override)
                : config.params.delta2();
  RSTP_CHECK_GE(delta2_, 1, "delta2 >= 1 requires c2 <= d");
  coder_ = std::make_shared<const BlockCoder>(symbols_, static_cast<std::uint32_t>(delta2_));
  stream_ = coder_->encode_message(config.input);
}

bool WindowedGammaTransmitter::local_action(Action& out) const {
  if (i_ >= stream_.size()) return false;  // all packets sent; acks drain as inputs
  if (c_ >= delta2_) RSTP_UNREACHABLE("c_ exceeds the block size");
  // Window constraint: block b may be in flight only when block b-W is
  // fully acked, i.e. completed_ >= b-W+1.
  if (block_ < completed_ + window_) {
    const auto tag = static_cast<std::uint32_t>(block_ % window_);
    out = Action::send(Packet::to_receiver(stream_[i_] + symbols_ * tag));
  } else {
    out = idle_t_action();  // window full: wait for the head block's acks
  }
  return true;
}

void WindowedGammaTransmitter::receive(const Packet& packet) {
  const std::size_t tag = packet.payload;
  RSTP_CHECK_LT(tag, window_, "ack payload must be a window tag");
  ++counters_.acks_observed;
  ++acks_[tag];
  RSTP_CHECK_LE(acks_[tag], delta2_, "more acks than packets for this tag");
  // Blocks complete strictly in order; a full later block waits for the
  // head (cascade of at most the window size).
  while (acks_[head_tag()] == delta2_) {
    acks_[head_tag()] = 0;
    ++completed_;
  }
}

void WindowedGammaTransmitter::take(const Action& action) {
  if (action.kind == ActionKind::Send) {
    ++i_;
    ++c_;
    if (c_ == delta2_) {
      ++block_;
      c_ = 0;
      ++counters_.blocks_encoded;
    }
  }
  // idle_t has no effect.
}

bool WindowedGammaTransmitter::transmission_complete() const { return i_ >= stream_.size(); }

std::string WindowedGammaTransmitter::snapshot() const {
  std::ostringstream os;
  os << "gammaw_t i=" << i_ << " c=" << c_ << " blk=" << block_ << " done=" << completed_
     << " acks=";
  for (const auto a : acks_) os << a << ',';
  return os.str();
}

WindowedGammaReceiver::WindowedGammaReceiver(const ProtocolConfig& config)
    : target_length_(config.input.size()) {
  config.validate();
  const WindowLayout layout = validated_layout(config.k, window_of(config));
  window_ = layout.window;
  symbols_ = layout.symbols;
  const auto delta2 = config.block_size_override.has_value()
                          ? *config.block_size_override
                          : static_cast<std::uint32_t>(config.params.delta2());
  coder_ = std::make_shared<const BlockCoder>(symbols_, delta2);
  blocks_.assign(window_, combinatorics::Multiset{symbols_});
  // Every block decodes in full, the last one's padding included.
  const std::size_t block_bits = coder_->bits_per_block();
  decoded_.reserve((target_length_ + block_bits - 1) / block_bits * block_bits);
  written_.reserve(target_length_);
}

void WindowedGammaReceiver::decode_ready_blocks() {
  // Blocks decode strictly in block order; a completed later-tag block
  // waits for its predecessors.
  while (blocks_[next_tag_].size() == coder_->packets_per_block()) {
    const std::vector<Bit> bits = coder_->decode(blocks_[next_tag_]);
    decoded_.insert(decoded_.end(), bits.begin(), bits.end());
    blocks_[next_tag_].clear();
    next_tag_ = (next_tag_ + 1) % window_;
    ++counters_.blocks_decoded;
  }
}

bool WindowedGammaReceiver::local_action(Action& out) const {
  if (!ack_queue_.empty()) {
    out = Action::send(Packet::to_transmitter(ack_queue_.front()));
  } else if (written_.size() < decoded_.size() && written_.size() < target_length_) {
    out = Action::write(decoded_[written_.size()]);
  } else {
    out = idle_r_action();
  }
  return true;
}

void WindowedGammaReceiver::receive(const Packet& packet) {
  const std::uint32_t payload = packet.payload;
  RSTP_CHECK_LT(payload, window_ * symbols_, "packet symbol outside the alphabet");
  const std::uint32_t tag = payload / symbols_;
  blocks_[tag].add(payload % symbols_);
  RSTP_CHECK_LE(blocks_[tag].size(), coder_->packets_per_block(),
                "two blocks of one tag in flight: window violated");
  ack_queue_.push_back(tag);
  decode_ready_blocks();
}

void WindowedGammaReceiver::take(const Action& action) {
  if (action.kind == ActionKind::Send) {
    ack_queue_.erase(ack_queue_.begin());
    ++counters_.acks_sent;
  }
}

bool WindowedGammaReceiver::quiescent() const {
  return ack_queue_.empty() &&
         (written_.size() >= target_length_ || written_.size() == decoded_.size());
}

std::string WindowedGammaReceiver::snapshot() const {
  std::ostringstream os;
  os << "gammaw_r written=" << written_.size() << " next=" << next_tag_ << " blocks=";
  for (const auto& block : blocks_) {
    for (const combinatorics::Symbol s : block.to_sorted_sequence()) os << s << ',';
    os << '|';
  }
  os << " acks=";
  for (const std::uint32_t tag : ack_queue_) os << tag << ',';
  os << " y=";
  for (const Bit b : decoded_) os << static_cast<int>(b);
  return os.str();
}

}  // namespace rstp::protocols

RSTP_TYPED_SIMULATOR(WindowedGamma);
