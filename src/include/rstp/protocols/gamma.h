// A^γ(k) — the active (acknowledgement-based) solution (paper §6.2,
// Figure 4; the protocol idea is credited to Richard Beigel).
//
// Like A^β but with block size δ2 = ⌊d/c2⌋ and ack-based block separation:
// the transmitter sends the δ2 packets of a block (taking ≤ δ2·c2 ≤ d time),
// then idles until it has received δ2 acknowledgements — one per delivered
// packet — before starting the next block. Since acks certify that the
// receiver holds the complete block, no timing argument is needed for block
// separation, and the per-block latency is bounded by 3d + c2 (packet
// delivery d, receiver ack step c2, ack delivery d, plus the ≤ d of block
// transmission), giving effort ≤ (3d + c2)/⌊log2 μ_k(δ2)⌋.
//
// Both sides read δ_j from one shared BlockPlanner: δ2 = ⌊d/c2⌋ (or the
// config override) under a fixed plan, ⌊d̂/ĉ2⌋ when block j starts under a
// live one (est::run_estimated). The ack gate keeps blocks apart whatever
// the estimates, so estimation affects effort, never correctness.
//
// The receiver's local-action priority is: outstanding acks first, then
// writes, then idle — acks gate the transmitter's progress, writes do not.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rstp/protocols/base.h"
#include "rstp/protocols/block_planner.h"

namespace rstp::protocols {

/// Payload of every acknowledgement packet (P^rt is the singleton {ack}).
inline constexpr std::uint32_t kAckPayload = 0;

class GammaTransmitter final : public Process<GammaTransmitter, TransmitterBase> {
 public:
  explicit GammaTransmitter(const ProtocolConfig& config);
  /// Reads `planner`'s plans, which must be AckedBlocks; make_protocol hands
  /// one planner, from block_planner_for, to both sides of a pair.
  explicit GammaTransmitter(std::shared_ptr<BlockPlanner> planner);

  [[nodiscard]] std::string_view name() const override { return "A_t^gamma"; }
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;

  /// δ2: packets in the first block (= acks awaited per round). Requires a
  /// non-empty input.
  [[nodiscard]] std::int64_t block_size() const { return planner_->plan(0).delta; }
  [[nodiscard]] std::size_t bits_per_block() const {
    return planner_->plan(0).coder->bits_per_block();
  }
  /// The encoded symbols of every planned block (all of them under a fixed
  /// plan).
  [[nodiscard]] std::vector<combinatorics::Symbol> symbol_stream() const {
    return planner_->symbol_stream();
  }
  /// The block plan this transmitter reads (shared with its receiver).
  [[nodiscard]] const BlockPlanner& planner() const { return *planner_; }

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void take(const ioa::Action& action);
  void receive(const ioa::Packet& packet);

  /// The current block's plan, fetched on the block's first step: a live
  /// planner sizes it from the estimates at that instant.
  const BlockPlan& plan() const;

  std::shared_ptr<BlockPlanner> planner_;
  mutable const BlockPlan* plan_ = nullptr;  // plan(block_), once fetched
  std::size_t block_ = 0;   // current block index
  std::uint32_t c_ = 0;     // packets sent in the current block (Figure 4's c)
  std::uint32_t a_ = 0;     // acks received in the current block (Figure 4's a)
  bool sent_all_ = false;   // the last block's last packet is sent
};

class GammaReceiver final : public Process<GammaReceiver, ReceiverBase> {
 public:
  explicit GammaReceiver(const ProtocolConfig& config);
  /// Decodes with `planner`'s plans (AckedBlocks); |X| is the planner's.
  explicit GammaReceiver(std::shared_ptr<BlockPlanner> planner);

  [[nodiscard]] std::string_view name() const override { return "A_r^gamma"; }
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] std::string snapshot() const override;

  /// Bits of X decoded so far; the final block's padding is never counted.
  [[nodiscard]] std::size_t decoded_bits() const { return decoder_.decoded().size(); }

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void take(const ioa::Action& action);
  void receive(const ioa::Packet& packet);

  BlockDecoder decoder_;            // Figure 4's A and the decoded bits
  std::int64_t unacked_ = 0;        // Figure 4's j: received, not yet acked
  std::size_t target_length_ = 0;   // |X|
};

}  // namespace rstp::protocols
