#include "rstp/channel/channel.h"

#include <algorithm>
#include <sstream>

#include "rstp/common/check.h"

namespace rstp::channel {

namespace {

/// Delivery order: time, then policy tie key, then send order.
[[nodiscard]] bool delivers_before(const InFlightPacket& a, const InFlightPacket& b) {
  if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
  if (a.order_key != b.order_key) return a.order_key < b.order_key;
  return a.send_seq < b.send_seq;
}

/// std::push_heap/pop_heap build a max-heap w.r.t. the comparator; inverting
/// the delivery order puts the earliest delivery at the front.
[[nodiscard]] bool delivers_after(const InFlightPacket& a, const InFlightPacket& b) {
  return delivers_before(b, a);
}

}  // namespace

Channel::Channel(Duration max_delay, std::unique_ptr<DeliveryPolicy> policy, Duration min_delay)
    : max_delay_(max_delay), min_delay_(min_delay), policy_(std::move(policy)) {
  RSTP_CHECK(!min_delay_.is_negative(), "channel minimum delay must be non-negative");
  RSTP_CHECK_LE(min_delay_.ticks(), max_delay_.ticks(), "need min_delay <= max_delay");
  RSTP_CHECK(policy_ != nullptr, "channel requires a delivery policy");
}

void Channel::send(const ioa::Packet& packet, Time now) {
  const Time earliest = now + min_delay_;
  const Time deadline = now + max_delay_;

  // In-model choices go through the policy and the window check; injected
  // faults step around both deliberately and are logged instead.
  const auto choose_in_model = [&](const ioa::Packet& p) {
    const Delivery choice = policy_->choose(p, now, deadline, send_seq_);
    if (choice.when < earliest || choice.when > deadline) {
      std::ostringstream os;
      os << "delivery policy violated the channel model: packet sent " << now
         << " scheduled for delivery " << choice.when << " outside [" << earliest << ", "
         << deadline << "]";
      throw ModelError(os.str());
    }
    return choice;
  };
  const auto enqueue = [&](const ioa::Packet& p, const Delivery& choice) {
    in_flight_.push_back(InFlightPacket{p, now, choice.when, choice.order_key, send_seq_});
    std::push_heap(in_flight_.begin(), in_flight_.end(), delivers_after);
  };
  const auto log_fault = [&](fault::FaultKind kind, const ioa::Packet& injected,
                             Duration late_by = Duration{0}) {
    fault_log_.push_back(
        fault::FaultEvent{kind, send_seq_, now, packet, injected, late_by});
  };

  if (injector_ == nullptr) {
    enqueue(packet, choose_in_model(packet));
    ++send_seq_;
    return;
  }

  const fault::FaultDecision decision = injector_->decide(packet, now, deadline, send_seq_);
  ioa::Packet actual = packet;
  if (decision.corrupt_payload.has_value()) {
    actual.payload = *decision.corrupt_payload;
    log_fault(fault::FaultKind::Corrupt, actual);
  }
  if (decision.drop) {
    log_fault(fault::FaultKind::Drop, actual);
    ++send_seq_;  // dropped sends still consume a send index
    return;
  }
  if (decision.late_by.ticks() > 0) {
    RSTP_CHECK(!decision.late_by.is_negative(), "late overshoot must be positive");
    log_fault(fault::FaultKind::Late, actual, decision.late_by);
    enqueue(actual, Delivery{deadline + decision.late_by, 0});
  } else {
    enqueue(actual, choose_in_model(actual));
  }
  for (std::uint32_t copy = 0; copy < decision.duplicates; ++copy) {
    log_fault(fault::FaultKind::Duplicate, actual);
    enqueue(actual, choose_in_model(actual));
  }
  ++send_seq_;
}

const std::vector<InFlightPacket>& Channel::collect_due(Time now) {
  due_scratch_.clear();
  while (!in_flight_.empty() && in_flight_.front().deliver_at <= now) {
    std::pop_heap(in_flight_.begin(), in_flight_.end(), delivers_after);
    due_scratch_.push_back(std::move(in_flight_.back()));
    in_flight_.pop_back();
    // Heap pops must come out in delivery order — the tie rule the simulator
    // and the §4 interleaving semantics rely on.
    RSTP_CHECK(due_scratch_.size() < 2 ||
                   !delivers_before(due_scratch_.back(), due_scratch_[due_scratch_.size() - 2]),
               "channel delivery order violated");
  }
  return due_scratch_;
}

}  // namespace rstp::channel
