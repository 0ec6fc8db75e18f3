// Strawman positional-block protocol — a deliberately order-SENSITIVE
// variant of A^β used by experiment E7 (the executable Lemma 5.1 study).
//
// It keeps A^β's exact send/wait rhythm (δ sends, δ waits) but encodes each
// block positionally: with b = ⌊log2 k⌋ bits per symbol, a block of δ
// symbols carries δ·b bits whose meaning depends on the ORDER in which the
// packets arrive. Under a FIFO environment it works and even carries more
// bits per block than A^β; under the adversarial batch policy — which
// delivers each window as a canonically-ordered batch, exactly the adversary
// from the lower-bound proofs — the arrival order is destroyed and the
// output is corrupted while A^β(k) still decodes perfectly.
//
// This contrast is the point: only the multiset content of a δ-window is
// information the receiver can rely on, which is precisely why μ_k(δ) (and
// not k^δ) appears in the paper's bounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rstp/protocols/base.h"

namespace rstp::protocols {

class StrawmanTransmitter final : public Process<StrawmanTransmitter, TransmitterBase> {
 public:
  /// The largest block, ⌈d/c1⌉ packets. A whole block is in flight at once
  /// under the worst-case delay, and `rstp run` holds about 60 bytes per
  /// packet in flight (channel queue and online verifier): 240 MB at this
  /// ceiling, however short X is.
  static constexpr std::int64_t kMaxBlock = std::int64_t{1} << 22;

  explicit StrawmanTransmitter(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_t^strawman"; }
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;

  [[nodiscard]] std::int64_t block_size() const { return delta_; }
  [[nodiscard]] std::size_t bits_per_block() const { return bits_per_block_; }

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void take(const ioa::Action& action);
  void receive(const ioa::Packet& /*packet*/) {}  // r-passive

  /// Symbol i of the block-aligned positional stream of ⌈|X|/B⌉·δ symbols,
  /// computed from X when it is sent rather than stored.
  [[nodiscard]] std::uint32_t symbol(std::size_t i) const;

  std::vector<ioa::Bit> input_;  // X
  std::size_t symbols_ = 0;      // length of the stream
  std::int64_t delta_ = 0;
  std::size_t bits_per_symbol_ = 0;
  std::size_t bits_per_block_ = 0;
  std::size_t i_ = 0;
  std::int64_t c_ = 0;
};

class StrawmanReceiver final : public Process<StrawmanReceiver, ReceiverBase> {
 public:
  explicit StrawmanReceiver(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_r^strawman"; }
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] std::string snapshot() const override;

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void receive(const ioa::Packet& packet);

  std::vector<std::uint32_t> arrivals_;  // current block, in ARRIVAL order
  std::vector<ioa::Bit> decoded_;
  std::uint32_t k_ = 2;
  std::int64_t delta_ = 0;
  std::size_t bits_per_symbol_ = 0;
  std::size_t target_length_ = 0;
};

}  // namespace rstp::protocols
