// Per-block transmission plans for A^β (Figure 3) and A^γ (Figure 4), and
// the only place that decides where their δ and W come from.
//
// Block j carries a slice of X, zero-padded to B_j = ⌊log2 μ_k(δ_j)⌋ bits
// and encoded as a multiset of δ_j packets; β then waits W_j steps, γ waits
// for δ_j acks. One planner is shared by the transmitter and receiver of a
// pair. Block j is planned, and its slice of X encoded, the first time
// either side asks for it, then frozen; the transmitter asks when it starts
// sending the block, so nothing is encoded before the first event and no
// block is encoded twice. The receiver first asks when block j's first
// packet arrives, after the transmitter planned it, so both sides agree on
// every plan and δ changes only at block boundaries. A planner is either
//   * fixed: the oracle constants (or the ProtocolConfig overrides) for
//     every block. Each plan is a pure function of (X, δ), and the deque
//     never moves a plan, so clones may share it however their runs
//     interleave (the explorer branches them freely); or
//   * live: block j is sized from est::TimingEstimator's estimates at the
//     first request. A live planner belongs to one run.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rstp/combinatorics/block_coder.h"
#include "rstp/ioa/action.h"
#include "rstp/protocols/base.h"

namespace rstp::est {
class TimingEstimator;
}

namespace rstp::protocols {

/// One block's frozen transmission plan.
struct BlockPlan {
  std::uint32_t delta = 1;   ///< δ_j: packets in this block
  std::uint32_t wait = 0;    ///< β: minimum wait_t steps after the block (γ: 0)
  std::size_t first_bit = 0; ///< offset of this block's slice of X
  std::size_t bits = 0;      ///< real input bits carried (≤ coder bits/block)
  std::shared_ptr<const combinatorics::BlockCoder> coder;
  std::vector<combinatorics::Symbol> symbols;  ///< δ_j symbols, canonical order
};

class BlockPlanner {
 public:
  /// β's timed blocks (δ from ⌈d/c1⌉, then a wait) or γ's acked blocks
  /// (δ from ⌊d/c2⌋).
  enum class Discipline : std::uint8_t { TimedBlocks, AckedBlocks };

  /// A fixed plan of `delta` packets and `wait` wait steps per block.
  BlockPlanner(Discipline discipline, std::uint32_t k, std::vector<ioa::Bit> input,
               std::uint32_t delta, std::uint32_t wait);

  /// A live plan, sized block by block from `estimator`'s estimates.
  BlockPlanner(Discipline discipline, std::uint32_t k, std::vector<ioa::Bit> input,
               std::shared_ptr<est::TimingEstimator> estimator);

  /// The plan for block j, computed and encoded on first request (a live
  /// planner sizes it from the current estimates), one block past the
  /// computed prefix at most. Requires has_block(j). The reference lives as
  /// long as the planner.
  const BlockPlan& plan(std::size_t j);

  /// True iff block j exists (the input is not exhausted before it).
  /// Requires plan(j-1) to have been computed for j >= 1.
  [[nodiscard]] bool has_block(std::size_t j) const;

  /// Packets in flight on the channel a live estimator watches; 0 otherwise.
  [[nodiscard]] std::uint64_t outstanding() const;
  /// Number of boundaries where δ changed (the resize gauge).
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }
  /// Number of blocks planned (and encoded) so far.
  [[nodiscard]] std::size_t planned() const { return plans_.size(); }
  [[nodiscard]] bool live() const { return estimator_ != nullptr; }
  [[nodiscard]] const std::vector<ioa::Bit>& input() const { return input_; }
  [[nodiscard]] std::uint32_t alphabet() const { return k_; }
  [[nodiscard]] Discipline discipline() const { return discipline_; }
  /// Concatenated block symbols, for tests: a fixed planner first plans
  /// every remaining block, so this is all of X's encoding; a live planner
  /// returns the blocks planned so far.
  [[nodiscard]] std::vector<combinatorics::Symbol> symbol_stream();

 private:
  void append(std::shared_ptr<const combinatorics::BlockCoder> coder, std::uint32_t wait);

  Discipline discipline_;
  std::uint32_t k_;
  std::vector<ioa::Bit> input_;
  std::shared_ptr<est::TimingEstimator> estimator_;  ///< null for a fixed plan
  std::shared_ptr<const combinatorics::BlockCoder> fixed_coder_;  ///< a fixed plan's coder
  std::uint32_t fixed_wait_ = 0;                                  ///< a fixed plan's wait
  std::deque<BlockPlan> plans_;  ///< a deque: appending never moves a plan
  std::map<std::uint32_t, std::shared_ptr<const combinatorics::BlockCoder>> coders_;
  std::uint64_t resizes_ = 0;
};

/// The receiving half of a plan (Figures 3/4's multiset A): decodes each
/// full block of arrivals into its slice of X, never into padding.
class BlockDecoder {
 public:
  explicit BlockDecoder(std::shared_ptr<BlockPlanner> planner);

  /// Adds one arrival. Returns true when it completed (and decoded) a block.
  /// Throws rstp::ModelError if a completed block is not a valid codeword.
  bool add(std::uint32_t symbol);

  /// The bits of X decoded so far (Figures 3/4's ŷ_1, ŷ_2, ...).
  [[nodiscard]] const std::vector<ioa::Bit>& decoded() const { return decoded_; }
  /// Arrivals collected towards the current block.
  [[nodiscard]] std::uint32_t pending() const { return block_.size(); }
  /// The decoder's whole state: the block index, its arrivals so far (as a
  /// sorted multiset) and the decoded bits.
  [[nodiscard]] std::string snapshot() const;
  [[nodiscard]] const BlockPlanner& planner() const { return *planner_; }

 private:
  std::shared_ptr<BlockPlanner> planner_;
  const BlockPlan* plan_ = nullptr;  ///< plan(index_), once its first packet arrived
  bool past_end_ = false;            ///< all of X's blocks are decoded
  std::size_t index_ = 0;            ///< block being collected
  combinatorics::Multiset block_;
  std::vector<ioa::Bit> decoded_;
};

/// `planner`, after checking that it is set and plans for `discipline`.
/// Throws rstp::ContractViolation otherwise.
[[nodiscard]] std::shared_ptr<BlockPlanner> checked_planner(BlockPlanner::Discipline discipline,
                                                            std::shared_ptr<BlockPlanner> planner);

/// The planner an A^β/A^γ automaton reads. When config.planner is set it is
/// returned after checking that its discipline, alphabet (config.k) and
/// input (config.input) match; otherwise a fixed planner is built from the
/// overrides or `params`. Throws rstp::ContractViolation on a mismatch.
[[nodiscard]] std::shared_ptr<BlockPlanner> block_planner_for(BlockPlanner::Discipline discipline,
                                                              const ProtocolConfig& config);

}  // namespace rstp::protocols
