// The channel automaton C(P) (paper §4) with bounded-delay timing (Δ(C(P))).
//
// Untimed, C(P)'s fair executions are exactly the sequences with a bijection
// between send and recv events in which no packet is received before it is
// sent — i.e. a lossless, duplication-free, arbitrarily-reordering bag. The
// timing property Δ(C(P)) additionally bounds every packet's (recv − send)
// difference by d.
//
// We realize the nondeterminism with a DeliveryPolicy: at each send the
// policy picks the delivery instant (and a tie-order key) within [sent, sent
// + d]. Different policies are different adversaries/environments — FIFO,
// random, latest-possible, and the batch adversary from the Lemma 5.1/5.4
// lower-bound constructions. The Channel enforces the model: a policy that
// returns an out-of-window time triggers rstp::ModelError.
//
// Simultaneous deliveries: the discrete-time model needs a tie rule where the
// paper's continuous model has measure-zero coincidences. Deliveries at equal
// times are handed over in ascending (order_key, send_seq) order; the default
// order_key is 0, making equal-time deliveries arrive in send order. Policies
// may override order_key to exercise adversarial same-instant orders; the
// verifier only requires the delay window, not the tie rule.
//
// send() without an injector is inline, so that the simulator's typed
// instances (sim/simulator.h) run it without a call; the injector's path and
// the window-violation text are out of line.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/common/time.h"
#include "rstp/fault/fault.h"
#include "rstp/ioa/action.h"

namespace rstp::channel {

/// A policy's decision for one packet.
struct Delivery {
  Time when{};                 ///< delivery instant, in [sent_at, sent_at + d]
  std::uint64_t order_key = 0;  ///< tie order among equal-time deliveries
};

/// Strategy resolving the channel's nondeterminism. Implementations must be
/// deterministic given their construction (seeded RNG allowed).
class DeliveryPolicy {
 public:
  virtual ~DeliveryPolicy() = default;

  /// Chooses when the `send_seq`-th packet, sent at `sent_at`, is delivered.
  /// `deadline` equals sent_at + d. Must return when ∈ [sent_at, deadline].
  [[nodiscard]] virtual Delivery choose(const ioa::Packet& packet, Time sent_at, Time deadline,
                                        std::uint64_t send_seq) = 0;
};

/// One packet accepted by the channel and not yet delivered.
struct InFlightPacket {
  ioa::Packet packet{};
  Time sent_at{};
  Time deliver_at{};
  std::uint64_t order_key = 0;
  std::uint64_t send_seq = 0;
};

/// The channel automaton with its timing property enforced at run time.
class Channel {
 public:
  /// `max_delay` is the paper's d. The policy resolves delivery times.
  /// `min_delay` generalizes the model per the paper's §7 (delivery within
  /// [d1, d2] instead of [0, d]); the default 0 is the paper's base model.
  /// The policy must respect both bounds — the channel enforces them.
  Channel(Duration max_delay, std::unique_ptr<DeliveryPolicy> policy,
          Duration min_delay = Duration{0});

  /// Accepts a send(p) input at time `now`.
  [[gnu::always_inline]] void send(const ioa::Packet& packet, Time now) {
    if (injector_ != nullptr) return send_with_faults(packet, now);
    enqueue(packet, now, choose_in_model(packet, now));
    ++send_seq_;
  }

  /// Earliest pending delivery instant (the heap's front). Requires
  /// !empty(); callers test empty() first. A plain Time rather than an
  /// optional, so the simulator's per-event instant fold stays in registers.
  [[nodiscard]] Time front_delivery_time() const {
    RSTP_CHECK(!in_flight_.empty(), "front_delivery_time() on an empty channel");
    return in_flight_.front().deliver_at;
  }

  /// Pops and returns every packet whose delivery instant is ≤ `now`, in
  /// delivery order (time, order_key, send_seq). The returned reference is to
  /// a reusable internal buffer: it stays valid until the next collect_due
  /// call and never allocates on the steady state (copy it to keep it).
  [[nodiscard]] const std::vector<InFlightPacket>& collect_due(Time now);

  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }
  [[nodiscard]] bool empty() const { return in_flight_.empty(); }
  [[nodiscard]] Duration max_delay() const { return max_delay_; }
  [[nodiscard]] Duration min_delay() const { return min_delay_; }

  /// Total packets ever accepted (= send events so far).
  [[nodiscard]] std::uint64_t total_sent() const { return send_seq_; }

  /// Attaches a fault injector (non-owning; must outlive the channel). Each
  /// subsequent send is first offered to the injector: drops never enter the
  /// queue, corruptions mutate the payload before the policy sees it, late
  /// decisions bypass the policy and schedule delivery past the deadline, and
  /// duplicates enqueue extra copies (each placed by the policy). Every
  /// applied fault lands in fault_log(), in send order. Without an injector
  /// (the default) behavior is exactly the in-model channel.
  void set_fault_injector(fault::FaultInjector* injector) { injector_ = injector; }

  /// Faults applied so far, in send order (one entry per duplicate copy).
  [[nodiscard]] const std::vector<fault::FaultEvent>& fault_log() const { return fault_log_; }

 private:
  /// The heap order, the reverse of delivery order (time, then policy tie
  /// key, then send order), so the heap's front is the earliest delivery.
  [[nodiscard]] static bool delivers_after(const InFlightPacket& a, const InFlightPacket& b) {
    if (a.deliver_at != b.deliver_at) return a.deliver_at > b.deliver_at;
    if (a.order_key != b.order_key) return a.order_key > b.order_key;
    return a.send_seq > b.send_seq;
  }
  /// The policy's choice for a packet sent at `now`, checked against the
  /// window [now + min_delay, now + d].
  [[nodiscard]] Delivery choose_in_model(const ioa::Packet& packet, Time now) {
    const Delivery choice = policy_->choose(packet, now, now + max_delay_, send_seq_);
    if (choice.when < now + min_delay_ || choice.when > now + max_delay_) {
      throw_window_violation(now, choice.when);
    }
    return choice;
  }
  void enqueue(const ioa::Packet& packet, Time now, const Delivery& choice) {
    in_flight_.push_back(InFlightPacket{packet, now, choice.when, choice.order_key, send_seq_});
    std::push_heap(in_flight_.begin(), in_flight_.end(), delivers_after);
  }
  /// send() with an injector attached (see set_fault_injector).
  void send_with_faults(const ioa::Packet& packet, Time now);
  [[noreturn, gnu::cold]] void throw_window_violation(Time now, Time when) const;

  Duration max_delay_;
  Duration min_delay_;
  std::unique_ptr<DeliveryPolicy> policy_;
  fault::FaultInjector* injector_ = nullptr;  // non-owning
  // Binary min-heap on (deliver_at, order_key, send_seq): O(log n) send and
  // pop instead of the previous sorted vector's O(n) insert.
  std::vector<InFlightPacket> in_flight_;
  std::vector<InFlightPacket> due_scratch_;  // reused by collect_due
  std::vector<fault::FaultEvent> fault_log_;
  std::uint64_t send_seq_ = 0;
};

}  // namespace rstp::channel
