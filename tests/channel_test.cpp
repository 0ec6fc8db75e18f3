// Tests for the channel automaton C(P) and its delivery policies.
#include "rstp/channel/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "rstp/channel/policies.h"
#include "rstp/common/check.h"
#include "rstp/fault/fault.h"

namespace rstp::channel {
namespace {

using ioa::Packet;

/// The text of the ModelError that sending `packet` at `now` throws; empty,
/// and a test failure, when it throws none.
std::string send_error_text(Channel& chan, const Packet& packet, Time now) {
  try {
    chan.send(packet, now);
  } catch (const ModelError& e) {
    return e.what();
  }
  ADD_FAILURE() << "send did not throw a ModelError";
  return {};
}

TEST(Channel, ZeroDelayDeliversImmediately) {
  Channel chan{Duration{10}, make_zero_delay()};
  EXPECT_TRUE(chan.empty());
  chan.send(Packet::to_receiver(1), at_tick(5));
  ASSERT_FALSE(chan.empty());
  EXPECT_EQ(chan.front_delivery_time(), at_tick(5));
  const auto due = chan.collect_due(at_tick(5));
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].packet.payload, 1u);
  EXPECT_EQ(due[0].sent_at, at_tick(5));
  EXPECT_TRUE(chan.empty());
  EXPECT_THROW((void)chan.front_delivery_time(), ContractViolation);
}

TEST(Channel, MaxDelayDeliversAtDeadline) {
  Channel chan{Duration{7}, make_max_delay()};
  chan.send(Packet::to_receiver(0), at_tick(3));
  EXPECT_EQ(chan.front_delivery_time(), at_tick(10));
  EXPECT_TRUE(chan.collect_due(at_tick(9)).empty());
  EXPECT_EQ(chan.collect_due(at_tick(10)).size(), 1u);
}

TEST(Channel, FixedDelayPreservesFifo) {
  Channel chan{Duration{10}, make_fixed_delay(Duration{4})};
  for (std::uint32_t p = 0; p < 5; ++p) {
    chan.send(Packet::to_receiver(p), at_tick(p));
  }
  const auto due = chan.collect_due(at_tick(100));
  ASSERT_EQ(due.size(), 5u);
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(due[p].packet.payload, p);
    EXPECT_EQ(due[p].deliver_at, at_tick(p + 4));
  }
}

TEST(Channel, PolicyViolationIsModelError) {
  // A fixed delay larger than d violates Δ(C(P)).
  Channel chan{Duration{3}, make_fixed_delay(Duration{5})};
  EXPECT_THROW(chan.send(Packet::to_receiver(0), at_tick(0)), ModelError);
}

TEST(Channel, PolicyViolationTextNamesTheWindow) {
  Channel chan{Duration{3}, make_fixed_delay(Duration{5})};
  EXPECT_EQ(send_error_text(chan, Packet::to_receiver(0), at_tick(2)),
            "delivery policy violated the channel model: packet sent @2 scheduled for "
            "delivery @7 outside [@2, @5]");
}

TEST(Channel, CollectDueReturnsSortedByDeliveryOrder) {
  Channel chan{Duration{10}, make_max_delay()};
  chan.send(Packet::to_receiver(2), at_tick(4));  // due 14
  chan.send(Packet::to_receiver(1), at_tick(1));  // due 11
  chan.send(Packet::to_receiver(3), at_tick(7));  // due 17
  EXPECT_EQ(chan.in_flight(), 3u);
  const auto due = chan.collect_due(at_tick(15));
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].packet.payload, 1u);
  EXPECT_EQ(due[1].packet.payload, 2u);
  EXPECT_EQ(chan.in_flight(), 1u);
}

TEST(Channel, EqualTimeTieBreaksBySendSeq) {
  // Two packets scheduled for the same instant arrive in send order when the
  // policy does not override order_key.
  Channel chan{Duration{5}, make_fixed_delay(Duration{5})};
  chan.send(Packet::to_receiver(9), at_tick(0));
  chan.send(Packet::to_receiver(8), at_tick(0));
  const auto due = chan.collect_due(at_tick(5));
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].packet.payload, 9u);
  EXPECT_EQ(due[1].packet.payload, 8u);
}

TEST(Channel, RandomPolicyStaysWithinWindowAndCanReorder) {
  Channel chan{Duration{20}, make_uniform_random(99, Duration{0}, Duration{20}, Duration{20})};
  for (std::uint32_t p = 0; p < 50; ++p) {
    chan.send(Packet::to_receiver(p), at_tick(p));
  }
  const auto due = chan.collect_due(at_tick(1000));
  ASSERT_EQ(due.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 0; i < due.size(); ++i) {
    const Duration delay = due[i].deliver_at - due[i].sent_at;
    EXPECT_GE(delay.ticks(), 0);
    EXPECT_LE(delay.ticks(), 20);
    if (i > 0 && due[i].send_seq < due[i - 1].send_seq) reordered = true;
  }
  EXPECT_TRUE(reordered) << "uniform random delays over a long stream should reorder";
}

TEST(Channel, ConstructionContracts) {
  EXPECT_THROW(Channel(Duration{-1}, make_zero_delay()), ContractViolation);
  EXPECT_THROW(Channel(Duration{5}, nullptr), ContractViolation);
}

TEST(UniformRandomPolicy, RejectsInvertedBoundsAtConstruction) {
  // Regression: lo > hi used to slip through construction and only blow up
  // (or silently bias) on the first draw. The contract is checked up front.
  EXPECT_THROW(make_uniform_random(1, Duration{5}, Duration{2}, Duration{10}),
               ContractViolation);
}

TEST(UniformRandomPolicy, RejectsUpperBoundBeyondChannelDeadline) {
  // hi > d would let the policy pick instants the channel must then reject
  // as ModelErrors; the factory refuses the configuration outright.
  EXPECT_THROW(make_uniform_random(1, Duration{0}, Duration{11}, Duration{10}),
               ContractViolation);
  EXPECT_THROW(make_uniform_random(1, Duration{-1}, Duration{4}, Duration{10}),
               ContractViolation);
  // The boundary itself is legal: delays uniform over the full [0, d].
  EXPECT_NO_THROW(make_uniform_random(1, Duration{0}, Duration{10}, Duration{10}));
}

TEST(AdversarialBatch, DeliversWholeWindowAtOnceInCanonicalOrder) {
  // Window 4, d 8: packets sent at 0..3 form window 0, delivered together at
  // 0*4+8 = 8 in ascending payload order regardless of send order.
  Channel chan{Duration{8}, make_adversarial_batch(Duration{4}, Duration{8})};
  chan.send(Packet::to_receiver(3), at_tick(0));
  chan.send(Packet::to_receiver(1), at_tick(1));
  chan.send(Packet::to_receiver(2), at_tick(2));
  chan.send(Packet::to_receiver(1), at_tick(3));
  // Window 1 (sends at 4..7) delivers at 12.
  chan.send(Packet::to_receiver(0), at_tick(4));
  EXPECT_EQ(chan.front_delivery_time(), at_tick(8));
  const auto first = chan.collect_due(at_tick(8));
  ASSERT_EQ(first.size(), 4u);
  EXPECT_EQ(first[0].packet.payload, 1u);
  EXPECT_EQ(first[1].packet.payload, 1u);
  EXPECT_EQ(first[2].packet.payload, 2u);
  EXPECT_EQ(first[3].packet.payload, 3u);
  const auto second = chan.collect_due(at_tick(12));
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].packet.payload, 0u);
}

TEST(AdversarialBatch, ErasesIntraWindowOrderInformation) {
  // Two different send orders of the same multiset produce identical
  // delivery sequences — the Lemma 5.1 indistinguishability.
  const auto run = [](std::vector<std::uint32_t> order) {
    Channel chan{Duration{6}, make_adversarial_batch(Duration{3}, Duration{6})};
    for (std::size_t i = 0; i < order.size(); ++i) {
      chan.send(Packet::to_receiver(order[i]), at_tick(static_cast<std::int64_t>(i)));
    }
    std::vector<std::uint32_t> arrivals;
    for (const auto& f : chan.collect_due(at_tick(100))) {
      arrivals.push_back(f.packet.payload);
    }
    return arrivals;
  };
  EXPECT_EQ(run({2, 0, 1}), run({1, 2, 0}));
  EXPECT_EQ(run({2, 0, 1}), run({0, 1, 2}));
}

TEST(AdversarialBatch, DescendingOrderVariant) {
  Channel chan{Duration{6},
               make_adversarial_batch(Duration{3}, Duration{6},
                                      AdversarialBatchPolicy::BatchOrder::DescendingPayload)};
  chan.send(Packet::to_receiver(0), at_tick(0));
  chan.send(Packet::to_receiver(2), at_tick(1));
  chan.send(Packet::to_receiver(1), at_tick(2));
  const auto due = chan.collect_due(at_tick(100));
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].packet.payload, 2u);
  EXPECT_EQ(due[1].packet.payload, 1u);
  EXPECT_EQ(due[2].packet.payload, 0u);
}

TEST(AdversarialBatch, RespectsDelayBoundAtWindowEdges) {
  // A packet sent at the last instant of a window still meets its deadline.
  Channel chan{Duration{4}, make_adversarial_batch(Duration{4}, Duration{4})};
  chan.send(Packet::to_receiver(0), at_tick(3));  // window 0 → delivery at 4
  const auto due = chan.collect_due(at_tick(4));
  ASSERT_EQ(due.size(), 1u);
  EXPECT_LE((due[0].deliver_at - due[0].sent_at).ticks(), 4);
}

TEST(AdversarialBatch, WindowWiderThanDelayRejected) {
  EXPECT_THROW((void)AdversarialBatchPolicy(Duration{9}, Duration{8}), ContractViolation);
  EXPECT_THROW((void)AdversarialBatchPolicy(Duration{0}, Duration{8}), ContractViolation);
}

TEST(Channel, MinDelayWindowEnforced) {
  // Generalized model: deliveries must take at least d1.
  Channel chan{Duration{10}, make_fixed_delay(Duration{5}), /*min_delay=*/Duration{3}};
  chan.send(Packet::to_receiver(0), at_tick(0));  // delay 5 ∈ [3, 10] OK
  EXPECT_EQ(chan.min_delay(), Duration{3});
  Channel too_fast{Duration{10}, make_zero_delay(), Duration{3}};
  EXPECT_THROW(too_fast.send(Packet::to_receiver(0), at_tick(0)), ModelError);
}

TEST(Channel, MinDelayViolationTextNamesTheWindow) {
  Channel too_fast{Duration{10}, make_zero_delay(), Duration{3}};
  EXPECT_EQ(send_error_text(too_fast, Packet::to_receiver(0), at_tick(4)),
            "delivery policy violated the channel model: packet sent @4 scheduled for "
            "delivery @4 outside [@7, @14]");
}

TEST(Channel, WindowViolationTextIsTheSameWithAnInjector) {
  // An injector that decides nothing leaves each send to the policy, whose
  // out-of-window choice fails exactly as on a channel without one.
  fault::SeededFaultInjector injector{7, fault::FaultRates{}};
  Channel late{Duration{3}, make_fixed_delay(Duration{5})};
  late.set_fault_injector(&injector);
  EXPECT_EQ(send_error_text(late, Packet::to_receiver(0), at_tick(2)),
            "delivery policy violated the channel model: packet sent @2 scheduled for "
            "delivery @7 outside [@2, @5]");
  Channel too_fast{Duration{10}, make_zero_delay(), Duration{3}};
  too_fast.set_fault_injector(&injector);
  EXPECT_EQ(send_error_text(too_fast, Packet::to_receiver(0), at_tick(4)),
            "delivery policy violated the channel model: packet sent @4 scheduled for "
            "delivery @4 outside [@7, @14]");
  EXPECT_TRUE(late.fault_log().empty());
  EXPECT_TRUE(too_fast.fault_log().empty());
}

TEST(Channel, MinDelayValidation) {
  EXPECT_THROW(Channel(Duration{5}, make_zero_delay(), Duration{-1}), ContractViolation);
  EXPECT_THROW(Channel(Duration{5}, make_zero_delay(), Duration{6}), ContractViolation);
  EXPECT_NO_THROW(Channel(Duration{5}, make_fixed_delay(Duration{5}), Duration{5}));
}

TEST(Channel, RandomPolicyWithinShiftedWindow) {
  Channel chan{Duration{12}, make_uniform_random(3, Duration{4}, Duration{12}, Duration{12}),
               Duration{4}};
  for (std::uint32_t p = 0; p < 40; ++p) {
    chan.send(Packet::to_receiver(p), at_tick(p));
  }
  for (const auto& f : chan.collect_due(at_tick(1000))) {
    const Duration delay = f.deliver_at - f.sent_at;
    EXPECT_GE(delay.ticks(), 4);
    EXPECT_LE(delay.ticks(), 12);
  }
}

TEST(Channel, TotalSentCounts) {
  Channel chan{Duration{5}, make_zero_delay()};
  EXPECT_EQ(chan.total_sent(), 0u);
  chan.send(Packet::to_receiver(0), at_tick(0));
  chan.send(Packet::to_transmitter(0), at_tick(1));
  EXPECT_EQ(chan.total_sent(), 2u);
}

}  // namespace
}  // namespace rstp::channel
