#include "rstp/channel/channel.h"

#include <algorithm>
#include <sstream>

#include "rstp/common/check.h"

namespace rstp::channel {

Channel::Channel(Duration max_delay, std::unique_ptr<DeliveryPolicy> policy, Duration min_delay)
    : max_delay_(max_delay), min_delay_(min_delay), policy_(std::move(policy)) {
  RSTP_CHECK(!min_delay_.is_negative(), "channel minimum delay must be non-negative");
  RSTP_CHECK_LE(min_delay_.ticks(), max_delay_.ticks(), "need min_delay <= max_delay");
  RSTP_CHECK(policy_ != nullptr, "channel requires a delivery policy");
}

void Channel::throw_window_violation(Time now, Time when) const {
  std::ostringstream os;
  os << "delivery policy violated the channel model: packet sent " << now
     << " scheduled for delivery " << when << " outside [" << now + min_delay_ << ", "
     << now + max_delay_ << "]";
  throw ModelError(os.str());
}

void Channel::send_with_faults(const ioa::Packet& packet, Time now) {
  const Time deadline = now + max_delay_;
  const auto log_fault = [&](fault::FaultKind kind, const ioa::Packet& injected,
                             Duration late_by = Duration{0}) {
    fault_log_.push_back(
        fault::FaultEvent{kind, send_seq_, now, packet, injected, late_by});
  };

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
    enqueue(actual, now, Delivery{deadline + decision.late_by, 0});
  } else {
    enqueue(actual, now, choose_in_model(actual, now));
  }
  for (std::uint32_t copy = 0; copy < decision.duplicates; ++copy) {
    log_fault(fault::FaultKind::Duplicate, actual);
    enqueue(actual, now, choose_in_model(actual, now));
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
                   !delivers_after(due_scratch_[due_scratch_.size() - 2], due_scratch_.back()),
               "channel delivery order violated");
  }
  return due_scratch_;
}

}  // namespace rstp::channel
