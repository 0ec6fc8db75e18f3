#include "rstp/protocols/block_planner.h"

#include <algorithm>
#include <span>
#include <sstream>

#include "rstp/common/check.h"
#include "rstp/est/estimator.h"

namespace rstp::protocols {

using combinatorics::BlockCoder;

BlockPlanner::BlockPlanner(Discipline discipline, std::uint32_t k, std::vector<ioa::Bit> input,
                           std::uint32_t delta, std::uint32_t wait)
    : discipline_(discipline), k_(k), input_(std::move(input)), fixed_wait_(wait) {
  RSTP_CHECK(k_ >= 2, "planner alphabet must have at least two symbols");
  fixed_coder_ = std::make_shared<const BlockCoder>(k_, delta);
}

BlockPlanner::BlockPlanner(Discipline discipline, std::uint32_t k, std::vector<ioa::Bit> input,
                           std::shared_ptr<est::TimingEstimator> estimator)
    : discipline_(discipline), k_(k), input_(std::move(input)), estimator_(std::move(estimator)) {
  RSTP_CHECK(k_ >= 2, "planner alphabet must have at least two symbols");
  RSTP_CHECK(estimator_ != nullptr, "planner requires an estimator");
}

bool BlockPlanner::has_block(std::size_t j) const {
  if (j == 0) return !input_.empty();
  RSTP_CHECK(j - 1 < plans_.size(), "has_block(j) requires plan(j-1) to be computed");
  const BlockPlan& prev = plans_[j - 1];
  return prev.first_bit + prev.bits < input_.size();
}

const BlockPlan& BlockPlanner::plan(std::size_t j) {
  if (j < plans_.size()) return plans_[j];
  RSTP_CHECK(j == plans_.size(), "plans are computed sequentially");
  RSTP_CHECK(has_block(j), "plan(j) requested past the end of the input");
  if (!live()) {
    append(fixed_coder_, fixed_wait_);
    return plans_.back();
  }
  const core::TimingParams est = estimator_->estimate();
  const std::int64_t raw =
      discipline_ == Discipline::TimedBlocks ? est.delta1_wait() : est.delta2();
  const auto delta = static_cast<std::uint32_t>(std::clamp<std::int64_t>(
      raw, 1, static_cast<std::int64_t>(estimator_->config().max_block)));
  auto [it, inserted] = coders_.try_emplace(delta, nullptr);
  if (inserted) it->second = std::make_shared<const BlockCoder>(k_, delta);
  append(it->second, discipline_ == Discipline::TimedBlocks ? delta : 0);
  return plans_.back();
}

void BlockPlanner::append(std::shared_ptr<const BlockCoder> coder, std::uint32_t wait) {
  BlockPlan p;
  p.delta = coder->packets_per_block();
  p.wait = wait;
  p.first_bit = plans_.empty() ? 0 : plans_.back().first_bit + plans_.back().bits;
  p.bits = std::min(coder->bits_per_block(), input_.size() - p.first_bit);
  // Each block is encoded independently: its slice of X zero-padded to the
  // coder's block width. Only the final block can carry padding, so every
  // other block encodes straight from X.
  std::span<const ioa::Bit> block{input_.data() + p.first_bit, p.bits};
  std::vector<ioa::Bit> padded;
  if (p.bits < coder->bits_per_block()) {
    padded.assign(coder->bits_per_block(), 0);
    std::copy(block.begin(), block.end(), padded.begin());
    block = padded;
  }
  p.symbols = coder->encode(block);
  p.coder = std::move(coder);
  if (!plans_.empty() && plans_.back().delta != p.delta) ++resizes_;
  plans_.push_back(std::move(p));
}

std::uint64_t BlockPlanner::outstanding() const {
  return estimator_ == nullptr ? 0 : estimator_->outstanding();
}

std::vector<combinatorics::Symbol> BlockPlanner::symbol_stream() {
  if (!live()) {
    while (has_block(plans_.size())) plan(plans_.size());
  }
  std::vector<combinatorics::Symbol> out;
  for (const BlockPlan& p : plans_) out.insert(out.end(), p.symbols.begin(), p.symbols.end());
  return out;
}

BlockDecoder::BlockDecoder(std::shared_ptr<BlockPlanner> planner)
    : planner_(std::move(planner)), block_(planner_->alphabet()) {
  decoded_.reserve(planner_->input().size());
}

bool BlockDecoder::add(std::uint32_t symbol) {
  RSTP_CHECK_LT(symbol, planner_->alphabet(), "packet symbol outside the alphabet");
  // The transmitter fetched this block's plan before sending its first
  // packet, so a shared planner returns that frozen plan; a fixed planner of
  // the receiver's own computes the same plan from (X, δ).
  if (plan_ == nullptr) plan_ = &planner_->plan(index_);
  block_.add(symbol);
  if (block_.size() < plan_->delta) return false;
  const std::vector<ioa::Bit> bits = plan_->coder->decode(block_);
  block_.clear();
  ++index_;
  if (past_end_) return true;
  decoded_.insert(decoded_.end(), bits.begin(),
                  bits.begin() + static_cast<std::ptrdiff_t>(plan_->bits));
  // Only a duplicating channel delivers more blocks than X has. They are
  // decoded with the last block's plan, so a bad codeword still throws, but
  // they add no bits.
  past_end_ = !planner_->has_block(index_);
  if (!past_end_) plan_ = nullptr;
  return true;
}

std::string BlockDecoder::snapshot() const {
  std::ostringstream os;
  os << "block=" << index_ << " A=";
  for (const combinatorics::Symbol s : block_.to_sorted_sequence()) os << s << ',';
  os << " y=";
  for (const ioa::Bit b : decoded_) os << static_cast<int>(b);
  return os.str();
}

std::shared_ptr<BlockPlanner> checked_planner(BlockPlanner::Discipline discipline,
                                              std::shared_ptr<BlockPlanner> planner) {
  RSTP_CHECK(planner != nullptr, "a block protocol needs a planner");
  RSTP_CHECK(planner->discipline() == discipline, "planner discipline does not match the protocol");
  return planner;
}

std::shared_ptr<BlockPlanner> block_planner_for(BlockPlanner::Discipline discipline,
                                                const ProtocolConfig& config) {
  config.validate();
  if (config.planner != nullptr) {
    (void)checked_planner(discipline, config.planner);
    RSTP_CHECK_EQ(config.planner->alphabet(), config.k, "planner alphabet must match config.k");
    RSTP_CHECK(config.planner->input() == config.input, "planner input must match config.input");
    return config.planner;
  }
  // β: δ = W = ⌈d/c1⌉. γ: δ = ⌊d/c2⌋ (≥ 1, as validate() checks c2 <= d).
  const bool timed = discipline == BlockPlanner::Discipline::TimedBlocks;
  const auto delta = static_cast<std::uint32_t>(timed ? config.params.delta1_wait()
                                                      : config.params.delta2());
  return std::make_shared<BlockPlanner>(discipline, config.k, config.input,
                                        config.block_size_override.value_or(delta),
                                        timed ? config.wait_steps_override.value_or(delta) : 0);
}

}  // namespace rstp::protocols
