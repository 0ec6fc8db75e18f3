// Unit tests for rstp::bigint::BigUint.
//
// Strategy: small values are cross-checked against native 64/128-bit
// arithmetic oracles; large values are checked through algebraic identities
// (a = (a/b)*b + a%b, (a+b)-b = a, decimal round trips, shift laws) and
// known landmark constants (factorials, powers, Mersenne numbers).
#include "rstp/bigint/biguint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/common/rng.h"

namespace rstp::bigint {
namespace {

using u128 = unsigned __int128;

BigUint from_u128(u128 v) {
  BigUint result{static_cast<std::uint64_t>(v >> 64)};
  result <<= 64;
  result.add_u64(static_cast<std::uint64_t>(v));
  return result;
}

TEST(BigUint, DefaultIsZero) {
  const BigUint zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_u64(), 0u);
  EXPECT_EQ(zero.to_decimal(), "0");
}

TEST(BigUint, ConstructFromU64) {
  const BigUint v{12345u};
  EXPECT_FALSE(v.is_zero());
  EXPECT_EQ(v.to_u64(), 12345u);
  EXPECT_EQ(v.to_decimal(), "12345");
}

TEST(BigUint, BitLengthMatchesPowersOfTwo) {
  for (std::size_t e = 0; e < 300; ++e) {
    const BigUint p = BigUint::pow2(e);
    EXPECT_EQ(p.bit_length(), e + 1) << "2^" << e;
    EXPECT_TRUE(p.bit(e));
    if (e > 0) {
      EXPECT_FALSE(p.bit(e - 1));
    }
  }
}

TEST(BigUint, DecimalRoundTripLandmarks) {
  EXPECT_EQ(BigUint::pow2(128).to_decimal(), "340282366920938463463374607431768211456");
  BigUint fact{1};
  for (std::uint64_t i = 2; i <= 25; ++i) fact.mul_u64(i);
  EXPECT_EQ(fact.to_decimal(), "15511210043330985984000000");  // 25!
  EXPECT_EQ(BigUint::from_decimal("15511210043330985984000000"), fact);
}

TEST(BigUint, FromDecimalRejectsGarbage) {
  EXPECT_THROW((void)BigUint::from_decimal(""), ContractViolation);
  EXPECT_THROW((void)BigUint::from_decimal("12a3"), ContractViolation);
  EXPECT_THROW((void)BigUint::from_decimal("-5"), ContractViolation);
}

TEST(BigUint, AdditionCarriesAcrossLimbs) {
  BigUint a{~std::uint64_t{0}};
  a += BigUint{1};
  EXPECT_EQ(a, BigUint::pow2(64));
  a += a;
  EXPECT_EQ(a, BigUint::pow2(65));
}

TEST(BigUint, SubtractionBorrowsAcrossLimbs) {
  BigUint a = BigUint::pow2(128);
  a -= BigUint{1};
  EXPECT_EQ(a.bit_length(), 128u);
  for (std::size_t i = 0; i < 128; ++i) EXPECT_TRUE(a.bit(i));
}

TEST(BigUint, SubtractionToZeroNormalizes) {
  BigUint a = BigUint::from_decimal("123123123123123123123123");
  a -= a;
  EXPECT_TRUE(a.is_zero());
  EXPECT_EQ(a, BigUint{});
}

TEST(BigUint, SubtractionUnderflowThrows) {
  BigUint small{3};
  EXPECT_THROW(small -= BigUint{4}, ContractViolation);
}

TEST(BigUint, MultiplicationMatchesU128Oracle) {
  Rng rng{0xB16B00B5};
  for (int iter = 0; iter < 500; ++iter) {
    const std::uint64_t a = rng.next_u64() >> rng.next_below(32);
    const std::uint64_t b = rng.next_u64() >> rng.next_below(32);
    const u128 expected = static_cast<u128>(a) * b;
    EXPECT_EQ(BigUint{a} * BigUint{b}, from_u128(expected)) << a << " * " << b;
  }
}

TEST(BigUint, MultiplicationByZeroAndOne) {
  const BigUint big = BigUint::from_decimal("987654321098765432109876543210");
  EXPECT_TRUE((big * BigUint{}).is_zero());
  EXPECT_EQ(big * BigUint{1}, big);
  EXPECT_EQ(BigUint{} * BigUint{}, BigUint{});
}

TEST(BigUint, MultiplicationLaws) {
  Rng rng{42};
  for (int iter = 0; iter < 100; ++iter) {
    const BigUint a{rng.next_u64()};
    const BigUint b{rng.next_u64()};
    const BigUint c{rng.next_u64()};
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(BigUint, ShiftLeftEqualsMultiplyByPow2) {
  const BigUint v = BigUint::from_decimal("123456789123456789123456789");
  for (const std::size_t s : {1u, 7u, 63u, 64u, 65u, 130u}) {
    EXPECT_EQ(v << s, v * BigUint::pow2(s)) << "shift " << s;
  }
}

TEST(BigUint, ShiftRightInvertsShiftLeft) {
  const BigUint v = BigUint::from_decimal("999999999999999999999999999999999");
  for (const std::size_t s : {1u, 13u, 64u, 64u * 3 + 5u}) {
    EXPECT_EQ((v << s) >> s, v) << "shift " << s;
  }
  EXPECT_TRUE((BigUint{1} >> 1).is_zero());
  EXPECT_TRUE((v >> 2000).is_zero());
}

TEST(BigUint, DivU64MatchesOracle) {
  Rng rng{7};
  for (int iter = 0; iter < 300; ++iter) {
    const std::uint64_t n = rng.next_u64();
    const std::uint64_t div = rng.next_u64() | 1;  // nonzero
    std::uint64_t rem = 0;
    const BigUint q = BigUint{n}.div_u64(div, rem);
    EXPECT_EQ(q.to_u64(), n / div);
    EXPECT_EQ(rem, n % div);
  }
}

TEST(BigUint, DivModIdentityOnRandomMultiLimbValues) {
  Rng rng{0xDEC0DE};
  for (int iter = 0; iter < 200; ++iter) {
    BigUint a{rng.next_u64()};
    const std::uint64_t a_limbs = rng.next_below(4);
    for (std::uint64_t i = 0; i < a_limbs; ++i) {
      a <<= 64;
      a.add_u64(rng.next_u64());
    }
    BigUint b{rng.next_u64() | 1};
    if (rng.next_bool()) {
      b <<= 64;
      b.add_u64(rng.next_u64());
    }
    const auto [q, r] = BigUint::divmod(a, b);
    EXPECT_TRUE(r < b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigUint, DivModSmallCases) {
  EXPECT_EQ((BigUint{100} / BigUint{7}).to_u64(), 14u);
  EXPECT_EQ((BigUint{100} % BigUint{7}).to_u64(), 2u);
  EXPECT_TRUE((BigUint{3} / BigUint{5}).is_zero());
  EXPECT_EQ((BigUint{3} % BigUint{5}).to_u64(), 3u);
  EXPECT_THROW((void)BigUint::divmod(BigUint{1}, BigUint{}), ContractViolation);
}

TEST(BigUint, ComparisonTotalOrder) {
  const BigUint a{5};
  const BigUint b = BigUint::pow2(64);
  const BigUint c = BigUint::pow2(64) + BigUint{1};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a, BigUint{5});
  EXPECT_NE(a, b);
  EXPECT_GE(c, b);
}

TEST(BigUint, ToU64RangeChecks) {
  EXPECT_EQ(BigUint{~std::uint64_t{0}}.to_u64(), ~std::uint64_t{0});
  EXPECT_TRUE(BigUint{7}.fits_u64());
  EXPECT_FALSE(BigUint::pow2(64).fits_u64());
  EXPECT_THROW((void)BigUint::pow2(64).to_u64(), ContractViolation);
}

TEST(BigUint, ToDoubleApproximates) {
  EXPECT_DOUBLE_EQ(BigUint{1000}.to_double(), 1000.0);
  EXPECT_NEAR(BigUint::pow2(100).to_double(), 0x1.0p100, 0x1.0p60);
}

TEST(BigUint, Log2ExactOnPowers) {
  for (const std::size_t e : {1u, 10u, 63u, 64u, 100u, 1000u}) {
    EXPECT_DOUBLE_EQ(BigUint::pow2(e).log2(), static_cast<double>(e)) << e;
  }
  EXPECT_THROW((void)BigUint{}.log2(), ContractViolation);
}

TEST(BigUint, Log2MatchesStdLogOnU64) {
  Rng rng{99};
  for (int iter = 0; iter < 100; ++iter) {
    const std::uint64_t v = rng.next_u64() | 1;
    EXPECT_NEAR(BigUint{v}.log2(), std::log2(static_cast<double>(v)), 1e-9);
  }
}

TEST(BigUint, MulAddU64InPlace) {
  BigUint v{1};
  for (int i = 0; i < 40; ++i) v.mul_u64(10);  // 10^40
  EXPECT_EQ(v.to_decimal(), "1" + std::string(40, '0'));
  v.add_u64(9);
  EXPECT_EQ(v.to_decimal(), "1" + std::string(39, '0') + "9");
  v.mul_u64(0);
  EXPECT_TRUE(v.is_zero());
}

TEST(BigUint, AdditionSubtractionRoundTripRandom) {
  Rng rng{0xFEED};
  for (int iter = 0; iter < 200; ++iter) {
    BigUint a{rng.next_u64()};
    a <<= static_cast<std::size_t>(rng.next_below(100));
    BigUint b{rng.next_u64()};
    b <<= static_cast<std::size_t>(rng.next_below(100));
    const BigUint sum = a + b;
    EXPECT_EQ(sum - b, a);
    EXPECT_EQ(sum - a, b);
    EXPECT_GE(sum, a);
    EXPECT_GE(sum, b);
  }
}

TEST(BigUint, LimbFormsAgreeWithTheOperators) {
  // from_limbs / limbs() round-trip, and add_limbs / sub_limbs /
  // compare_limbs match +=, -= and <=> whatever trailing zero limbs the
  // span carries.
  Rng rng{0x11AB5};
  for (int iter = 0; iter < 200; ++iter) {
    BigUint a{rng.next_u64()};
    a <<= static_cast<std::size_t>(rng.next_below(130));
    BigUint b{rng.next_u64() >> rng.next_below(64)};
    b <<= static_cast<std::size_t>(rng.next_below(130));
    std::vector<std::uint64_t> padded(b.limbs().begin(), b.limbs().end());
    padded.resize(padded.size() + rng.next_below(3), 0);
    EXPECT_EQ(BigUint::from_limbs(padded), b);
    EXPECT_EQ(BigUint::from_limbs(a.limbs()), a);
    EXPECT_EQ(a.compare_limbs(padded), a <=> b);
    BigUint sum = a;
    sum.add_limbs(padded);
    EXPECT_EQ(sum, a + b);
    if (a >= b) {
      BigUint diff = a;
      diff.sub_limbs(padded);
      EXPECT_EQ(diff, a - b);
    } else {
      EXPECT_THROW(BigUint{a}.sub_limbs(padded), ContractViolation);
    }
  }
  EXPECT_TRUE(BigUint::from_limbs(std::vector<std::uint64_t>{0, 0}).is_zero());
  EXPECT_TRUE(BigUint{}.limbs().empty());
  BigUint x{5};
  x += x;  // adding a value to itself doubles it
  EXPECT_EQ(x, BigUint{10});
}

TEST(BigUint, StreamOperatorPrintsDecimal) {
  std::ostringstream os;
  os << BigUint::from_decimal("31337");
  EXPECT_EQ(os.str(), "31337");
}

}  // namespace
}  // namespace rstp::bigint
