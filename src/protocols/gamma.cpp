#include "rstp/protocols/gamma.h"

#include <sstream>

#include "rstp/common/check.h"
#include "rstp/sim/simulator_impl.h"

namespace rstp::protocols {

using ioa::Action;
using ioa::ActionKind;
using ioa::Packet;

GammaTransmitter::GammaTransmitter(const ProtocolConfig& config)
    : GammaTransmitter(block_planner_for(BlockPlanner::Discipline::AckedBlocks, config)) {}

GammaTransmitter::GammaTransmitter(std::shared_ptr<BlockPlanner> planner)
    : planner_(checked_planner(BlockPlanner::Discipline::AckedBlocks, std::move(planner))),
      sent_all_(!planner_->has_block(0)) {}

const BlockPlan& GammaTransmitter::plan() const {
  if (plan_ == nullptr) plan_ = &planner_->plan(block_);
  return *plan_;
}

bool GammaTransmitter::local_action(Action& out) const {
  // Figure 4: send while c < δ; idle_t while awaiting the block's acks.
  if (sent_all_ && c_ == 0) return false;  // the last block is acked
  const BlockPlan& p = plan();
  out = c_ < p.delta ? Action::send(Packet::to_receiver(p.symbols[c_])) : idle_t_action();
  return true;
}

void GammaTransmitter::receive(const Packet& packet) {
  // recv(ack): a := a + 1; when the block is fully acked, unlock the next.
  RSTP_CHECK_EQ(packet.payload, kAckPayload, "unexpected r→t payload");
  ++a_;
  ++counters_.acks_observed;
  // Under the lossless, duplication-free channel every ack answers a packet
  // of the current block, so acks can never outrun this round's sends.
  RSTP_CHECK_LE(a_, c_, "ack without a matching packet in this block");
  if (a_ == plan().delta) {
    a_ = 0;
    c_ = 0;
    if (!sent_all_) {
      ++block_;
      plan_ = nullptr;
    }
  }
}

void GammaTransmitter::take(const Action& action) {
  if (action.kind == ActionKind::Send && ++c_ == plan().delta) {
    ++counters_.blocks_encoded;
    sent_all_ = !planner_->has_block(block_ + 1);
  }
  // idle_t has no effect.
}

bool GammaTransmitter::transmission_complete() const { return sent_all_; }

std::string GammaTransmitter::snapshot() const {
  std::ostringstream os;
  os << "gamma_t block=" << block_ << " c=" << c_ << " a=" << a_ << " sent_all=" << sent_all_;
  return os.str();
}

GammaReceiver::GammaReceiver(const ProtocolConfig& config)
    : GammaReceiver(block_planner_for(BlockPlanner::Discipline::AckedBlocks, config)) {}

GammaReceiver::GammaReceiver(std::shared_ptr<BlockPlanner> planner)
    : decoder_(checked_planner(BlockPlanner::Discipline::AckedBlocks, std::move(planner))),
      target_length_(decoder_.planner().input().size()) {
  written_.reserve(target_length_);
}

bool GammaReceiver::local_action(Action& out) const {
  // Priority: acks gate the transmitter, so they come first (Figure 4's
  // send(ack) precondition j > 0), then writes, then idle.
  if (unacked_ > 0) {
    out = Action::send(Packet::to_transmitter(kAckPayload));
  } else if (written_.size() < decoder_.decoded().size()) {
    out = Action::write(decoder_.decoded()[written_.size()]);
  } else {
    out = idle_r_action();
  }
  return true;
}

void GammaReceiver::receive(const Packet& packet) {
  if (decoder_.add(packet.payload)) ++counters_.blocks_decoded;
  ++unacked_;
}

void GammaReceiver::take(const Action& action) {
  if (action.kind == ActionKind::Send) {
    --unacked_;
    ++counters_.acks_sent;
  }
}

bool GammaReceiver::quiescent() const {
  return unacked_ == 0 &&
         (written_.size() >= target_length_ ||
          (written_.size() == decoder_.decoded().size() && decoder_.pending() == 0));
}

std::string GammaReceiver::snapshot() const {
  std::ostringstream os;
  os << "gamma_r written=" << written_.size() << " unacked=" << unacked_ << ' '
     << decoder_.snapshot();
  return os.str();
}

}  // namespace rstp::protocols

RSTP_TYPED_SIMULATOR(Gamma);
