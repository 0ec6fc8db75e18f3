// Tests for the common substrate: Time/Duration arithmetic and the seeded RNG.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/common/time.h"
#include "rstp/core/params.h"

#include <sstream>

namespace rstp {
namespace {

TEST(Duration, ArithmeticAndOrdering) {
  const Duration a{5};
  const Duration b{3};
  EXPECT_EQ((a + b).ticks(), 8);
  EXPECT_EQ((a - b).ticks(), 2);
  EXPECT_EQ((b - a).ticks(), -2);
  EXPECT_TRUE((b - a).is_negative());
  EXPECT_EQ((a * 4).ticks(), 20);
  EXPECT_EQ((4 * a).ticks(), 20);
  EXPECT_LT(b, a);
  EXPECT_EQ((-a).ticks(), -5);
}

TEST(Duration, FloorAndCeilDivision) {
  EXPECT_EQ(Duration{10}.floor_div(Duration{3}), 3);
  EXPECT_EQ(Duration{10}.ceil_div(Duration{3}), 4);
  EXPECT_EQ(Duration{9}.floor_div(Duration{3}), 3);
  EXPECT_EQ(Duration{9}.ceil_div(Duration{3}), 3);
  EXPECT_EQ(Duration{0}.floor_div(Duration{5}), 0);
  EXPECT_EQ(Duration{0}.ceil_div(Duration{5}), 0);
  EXPECT_EQ(Duration{-7}.floor_div(Duration{2}), -4);
  EXPECT_EQ(Duration{-7}.ceil_div(Duration{2}), -3);
  EXPECT_THROW((void)Duration{4}.floor_div(Duration{0}), ContractViolation);
  EXPECT_THROW((void)Duration{4}.floor_div(Duration{-2}), ContractViolation);
}

TEST(Time, InstantArithmetic) {
  const Time t0 = Time::zero();
  const Time t1 = t0 + Duration{7};
  EXPECT_EQ(t1.ticks(), 7);
  EXPECT_EQ((t1 - t0).ticks(), 7);
  EXPECT_EQ((t1 - Duration{2}).ticks(), 5);
  EXPECT_LT(t0, t1);
  Time t = t0;
  t += Duration{3};
  EXPECT_EQ(t.ticks(), 3);
  EXPECT_EQ(at_tick(11).ticks(), 11);
  EXPECT_EQ(ticks(11).ticks(), 11);
}

TEST(TimingParams, ValidationAndDerivedCounts) {
  const auto p = core::TimingParams::make(3, 4, 10);
  EXPECT_EQ(p.delta1(), 3);       // ⌊10/3⌋
  EXPECT_EQ(p.delta1_wait(), 4);  // ⌈10/3⌉
  EXPECT_EQ(p.delta2(), 2);       // ⌊10/4⌋
  // Exact divisibility collapses floor and ceil (the paper's case).
  const auto q = core::TimingParams::make(2, 5, 10);
  EXPECT_EQ(q.delta1(), 5);
  EXPECT_EQ(q.delta1_wait(), 5);
  EXPECT_EQ(q.delta2(), 2);
  EXPECT_THROW((void)core::TimingParams::make(0, 1, 1), ContractViolation);
  EXPECT_THROW((void)core::TimingParams::make(2, 1, 3), ContractViolation);  // c1 > c2
  EXPECT_THROW((void)core::TimingParams::make(1, 3, 2), ContractViolation);  // c2 > d
}

TEST(TimingParams, EqualityAndPrinting) {
  const auto a = core::TimingParams::make(1, 2, 4);
  const auto b = core::TimingParams::make(1, 2, 4);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, core::TimingParams::make(1, 2, 5));
  std::ostringstream os;
  os << a;
  EXPECT_EQ(os.str(), "{c1=1t, c2=2t, d=4t}");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{12345};
  Rng b{12345};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DistinctSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng{9};
  for (const std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
  EXPECT_THROW((void)rng.next_below(0), ContractViolation);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng{31337};
  std::map<std::uint64_t, int> histogram;
  constexpr int kDraws = 60000;
  for (int i = 0; i < kDraws; ++i) {
    ++histogram[rng.next_below(6)];
  }
  for (std::uint64_t v = 0; v < 6; ++v) {
    // Each bucket expects 10000; 4 sigma ≈ 365.
    EXPECT_NEAR(histogram[v], kDraws / 6, 500) << "bucket " << v;
  }
}

TEST(Rng, NextInCoversClosedRange) {
  Rng rng{4242};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  EXPECT_EQ(rng.next_in(5, 5), 5);
  EXPECT_THROW((void)rng.next_in(6, 5), ContractViolation);
}

TEST(Rng, NextDurationRespectsBounds) {
  Rng rng{8};
  for (int i = 0; i < 500; ++i) {
    const Duration d = rng.next_duration(Duration{2}, Duration{9});
    EXPECT_GE(d.ticks(), 2);
    EXPECT_LE(d.ticks(), 9);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng{66};
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliRespectsP) {
  Rng rng{17};
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.next_bool(0.25)) ++heads;
  }
  EXPECT_NEAR(heads, 2500, 200);
  EXPECT_THROW((void)rng.next_bool(1.5), ContractViolation);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent{5};
  Rng child = parent.fork();
  // The child stream differs from the continuing parent stream.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(SplitMix, KnownSequenceIsStable) {
  // Regression pin: splitmix64 from seed 0 (reference values from the
  // published algorithm).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64(state), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64(state), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64(state), 0x06C45D188009454FULL);
}

TEST(Rng, Xoshiro256StarStarKnownSequenceIsStable) {
  // Regression pin of the generator every seeded run draws from: seed 42,
  // expanded by splitmix64, then xoshiro256** raw words and each
  // distribution on top. Any change to the algorithm, its seeding or a
  // distribution's use of the raw words moves every randomized golden.
  Rng rng{42};
  EXPECT_EQ(rng.next_u64(), 0x15780b2e0c2ec716ULL);
  EXPECT_EQ(rng.next_u64(), 0x6104d9866d113a7eULL);
  EXPECT_EQ(rng.next_u64(), 0xae17533239e499a1ULL);
  EXPECT_EQ(rng.next_u64(), 0xecb8ad4703b360a1ULL);
  std::vector<int> bools;
  for (int i = 0; i < 16; ++i) bools.push_back(rng.next_bool() ? 1 : 0);
  EXPECT_EQ(bools, (std::vector<int>{0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0}));
  bools.clear();
  for (int i = 0; i < 8; ++i) bools.push_back(rng.next_bool(0.25) ? 1 : 0);
  EXPECT_EQ(bools, (std::vector<int>{1, 1, 0, 0, 0, 0, 0, 0}));
  std::vector<std::uint64_t> below;
  for (int i = 0; i < 4; ++i) below.push_back(rng.next_below(1000));
  EXPECT_EQ(below, (std::vector<std::uint64_t>{635, 231, 414, 622}));
  std::vector<std::int64_t> ticks;
  for (int i = 0; i < 4; ++i) ticks.push_back(rng.next_duration(Duration{3}, Duration{9}).ticks());
  EXPECT_EQ(ticks, (std::vector<std::int64_t>{9, 9, 8, 8}));
  EXPECT_EQ(rng.next_double(), 0.78458794221370232);
}

}  // namespace
}  // namespace rstp
