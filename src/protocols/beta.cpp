#include "rstp/protocols/beta.h"

#include <sstream>

#include "rstp/sim/simulator_impl.h"

namespace rstp::protocols {

using ioa::Action;
using ioa::ActionKind;
using ioa::Packet;

BetaTransmitter::BetaTransmitter(const ProtocolConfig& config)
    : BetaTransmitter(block_planner_for(BlockPlanner::Discipline::TimedBlocks, config)) {}

BetaTransmitter::BetaTransmitter(std::shared_ptr<BlockPlanner> planner)
    : planner_(checked_planner(BlockPlanner::Discipline::TimedBlocks, std::move(planner))),
      sent_all_(!planner_->has_block(0)) {}

const BlockPlan& BetaTransmitter::plan() const {
  if (plan_ == nullptr) plan_ = &planner_->plan(block_);
  return *plan_;
}

bool BetaTransmitter::local_action(Action& out) const {
  // Figure 3: send while c < δ, then wait_t while δ <= c < δ + W.
  if (sent_all_ && c_ == 0) return false;  // the final wait is over
  const BlockPlan& p = plan();
  out = c_ < p.delta ? Action::send(Packet::to_receiver(p.symbols[c_])) : wait_t_action();
  return true;
}

void BetaTransmitter::take(const Action& action) {
  ++c_;
  const BlockPlan& p = plan();
  if (action.kind == ActionKind::Send) {
    if (c_ == p.delta) {
      ++counters_.blocks_encoded;
      sent_all_ = !planner_->has_block(block_ + 1);
    }
  } else if (c_ >= p.delta + p.wait && planner_->outstanding() == 0) {
    // wait_t: the round ends after W waits, once the channel has drained
    // (a fixed plan reports nothing outstanding; see the header).
    c_ = 0;
    if (!sent_all_) {
      ++block_;
      plan_ = nullptr;
    }
  }
}

bool BetaTransmitter::transmission_complete() const { return sent_all_; }

std::string BetaTransmitter::snapshot() const {
  std::ostringstream os;
  os << "beta_t block=" << block_ << " c=" << c_ << " sent_all=" << sent_all_;
  return os.str();
}

BetaReceiver::BetaReceiver(const ProtocolConfig& config)
    : BetaReceiver(block_planner_for(BlockPlanner::Discipline::TimedBlocks, config)) {}

BetaReceiver::BetaReceiver(std::shared_ptr<BlockPlanner> planner)
    : decoder_(checked_planner(BlockPlanner::Discipline::TimedBlocks, std::move(planner))),
      target_length_(decoder_.planner().input().size()) {
  written_.reserve(target_length_);
}

bool BetaReceiver::local_action(Action& out) const {
  const std::vector<ioa::Bit>& decoded = decoder_.decoded();
  out = written_.size() < decoded.size() ? Action::write(decoded[written_.size()])
                                         : idle_r_action();
  return true;
}

void BetaReceiver::receive(const Packet& packet) {
  // Figure 3: decode each full block of arrivals from its multiset.
  if (decoder_.add(packet.payload)) ++counters_.blocks_decoded;
}

bool BetaReceiver::quiescent() const {
  return written_.size() >= target_length_ ||
         (written_.size() == decoder_.decoded().size() && decoder_.pending() == 0);
}

std::string BetaReceiver::snapshot() const {
  std::ostringstream os;
  os << "beta_r written=" << written_.size() << ' ' << decoder_.snapshot();
  return os.str();
}

}  // namespace rstp::protocols

RSTP_TYPED_SIMULATOR(Beta);
