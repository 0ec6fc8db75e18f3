// A^β(k) — the block r-passive solution (paper §6.1, Figure 3).
//
// The transmitter sends X in blocks: block j carries B_j = ⌊log2 μ_k(δ_j)⌋
// bits, encoded as a multiset of δ_j packets (combinatorics::BlockCoder),
// and is followed by W_j wait_t steps. The wait spans ≥ d time, so all of a
// block's packets arrive before any of the next block's — blocks cannot
// mix, and since decoding is from the multiset, order within a block is
// irrelevant. The receiver decodes every full block of δ_j arrivals, keeps
// that block's slice of X (dropping padding) and writes it one bit a step.
//
// Both sides read (δ_j, W_j) from one shared BlockPlanner. A fixed plan
// (config.planner == nullptr) has δ = W = ⌈d/c1⌉ — δ1 = d/c1 generalized
// to non-dividing c1, see core::TimingParams::delta1_wait — or the config
// overrides; worst-case effort is 2δ·c2 / B (Lemma 6.1). A live plan (from
// est::run_estimated) has δ_j = W_j = ⌈d̂/ĉ1⌉ when block j starts, and the
// wait also lasts until the channel drains, which keeps blocks apart while
// d̂ still trails d. The drain applies only with a live estimator.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rstp/protocols/base.h"
#include "rstp/protocols/block_planner.h"

namespace rstp::protocols {

class BetaTransmitter final : public Process<BetaTransmitter, TransmitterBase> {
 public:
  explicit BetaTransmitter(const ProtocolConfig& config);
  /// Reads `planner`'s plans, which must be TimedBlocks; make_protocol hands
  /// one planner, from block_planner_for, to both sides of a pair.
  explicit BetaTransmitter(std::shared_ptr<BlockPlanner> planner);

  [[nodiscard]] std::string_view name() const override { return "A_t^beta"; }
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;

  /// δ: packets in the first block (default ⌈d/c1⌉, overridable via
  /// ProtocolConfig). Requires a non-empty input.
  [[nodiscard]] std::int64_t block_size() const { return planner_->plan(0).delta; }
  /// W: wait steps after the first block (default ⌈d/c1⌉, overridable).
  [[nodiscard]] std::int64_t wait_steps() const { return planner_->plan(0).wait; }
  /// B: message bits per block of the first block's size.
  [[nodiscard]] std::size_t bits_per_block() const {
    return planner_->plan(0).coder->bits_per_block();
  }
  /// The encoded symbols of every planned block (all of them under a fixed
  /// plan): |X| padded to a block multiple.
  [[nodiscard]] std::vector<combinatorics::Symbol> symbol_stream() const {
    return planner_->symbol_stream();
  }
  /// The block plan this transmitter reads (shared with its receiver).
  [[nodiscard]] const BlockPlanner& planner() const { return *planner_; }

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void take(const ioa::Action& action);
  // r-passive: the receiver never sends, but stay input-enabled.
  void receive(const ioa::Packet& /*packet*/) {}

  /// The current block's plan, fetched on the block's first step: a live
  /// planner sizes it from the estimates at that instant.
  const BlockPlan& plan() const;

  std::shared_ptr<BlockPlanner> planner_;
  mutable const BlockPlan* plan_ = nullptr;  // plan(block_), once fetched
  std::size_t block_ = 0;   // current block index
  std::uint32_t c_ = 0;     // Figure 3's c: steps into the block's round
  bool sent_all_ = false;   // the last block's last packet is sent
};

class BetaReceiver final : public Process<BetaReceiver, ReceiverBase> {
 public:
  explicit BetaReceiver(const ProtocolConfig& config);
  /// Decodes with `planner`'s plans (TimedBlocks); |X| is the planner's.
  explicit BetaReceiver(std::shared_ptr<BlockPlanner> planner);

  [[nodiscard]] std::string_view name() const override { return "A_r^beta"; }
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] std::string snapshot() const override;

  /// Bits of X decoded so far. Each block contributes only its real bits,
  /// so the final block's padding is never counted.
  [[nodiscard]] std::size_t decoded_bits() const { return decoder_.decoded().size(); }

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void receive(const ioa::Packet& packet);

  BlockDecoder decoder_;            // Figure 3's A and ŷ_1, ŷ_2, ...
  std::size_t target_length_ = 0;   // |X|
};

}  // namespace rstp::protocols
