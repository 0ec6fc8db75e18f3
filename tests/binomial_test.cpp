// Tests for the counting functions μ_k(n), ζ_k(n) (paper §3) and binomials.
#include "rstp/combinatorics/binomial.h"

#include <gtest/gtest.h>

#include <cmath>

#include "rstp/common/check.h"

namespace rstp::combinatorics {
namespace {

using bigint::BigUint;

TEST(Binomial, SmallTable) {
  EXPECT_EQ(binomial(0, 0).to_u64(), 1u);
  EXPECT_EQ(binomial(5, 0).to_u64(), 1u);
  EXPECT_EQ(binomial(5, 5).to_u64(), 1u);
  EXPECT_EQ(binomial(5, 2).to_u64(), 10u);
  EXPECT_EQ(binomial(10, 3).to_u64(), 120u);
  EXPECT_EQ(binomial(52, 5).to_u64(), 2598960u);  // poker hands
}

TEST(Binomial, OutOfRangeIsZero) {
  EXPECT_TRUE(binomial(3, 4).is_zero());
  EXPECT_TRUE(binomial(0, 1).is_zero());
}

TEST(Binomial, SymmetryLaw) {
  for (std::uint64_t n = 0; n <= 30; ++n) {
    for (std::uint64_t r = 0; r <= n; ++r) {
      EXPECT_EQ(binomial(n, r), binomial(n, n - r)) << n << " choose " << r;
    }
  }
}

TEST(Binomial, PascalRecurrence) {
  for (std::uint64_t n = 1; n <= 40; ++n) {
    for (std::uint64_t r = 1; r <= n; ++r) {
      EXPECT_EQ(binomial(n, r), binomial(n - 1, r - 1) + binomial(n - 1, r));
    }
  }
}

TEST(Binomial, RowSumsArePowersOfTwo) {
  for (std::uint64_t n = 0; n <= 64; ++n) {
    BigUint sum;
    for (std::uint64_t r = 0; r <= n; ++r) sum += binomial(n, r);
    EXPECT_EQ(sum, BigUint::pow2(n)) << "row " << n;
  }
}

TEST(Binomial, LargeValueExact) {
  // C(200, 100), a 60-digit number (reference value from exact computation).
  EXPECT_EQ(binomial(200, 100).to_decimal(),
            "90548514656103281165404177077484163874504589675413336841320");
}

TEST(Mu, MatchesClosedForm) {
  // μ_k(n) = C(n+k-1, k-1).
  for (std::uint32_t k = 1; k <= 10; ++k) {
    for (std::uint32_t n = 0; n <= 12; ++n) {
      EXPECT_EQ(mu(k, n), binomial(n + k - 1, k - 1)) << "k=" << k << " n=" << n;
    }
  }
}

TEST(Mu, KnownValues) {
  EXPECT_EQ(mu(2, 3).to_u64(), 4u);    // {000,001,011,111}
  EXPECT_EQ(mu(3, 2).to_u64(), 6u);    // pairs over 3 symbols
  EXPECT_EQ(mu(1, 100).to_u64(), 1u);  // single symbol: one multiset
  EXPECT_EQ(mu(4, 0).to_u64(), 1u);    // the empty multiset
}

TEST(Mu, MonotoneInBothArguments) {
  // The paper uses μ_k(j) ≤ μ_k(j+1); also μ is monotone in k.
  for (std::uint32_t k = 2; k <= 8; ++k) {
    for (std::uint32_t n = 1; n <= 10; ++n) {
      EXPECT_LE(mu(k, n), mu(k, n + 1));
      EXPECT_LE(mu(k, n), mu(k + 1, n));
    }
  }
}

TEST(Zeta, MatchesThePapersSum) {
  // zeta computes the hockey-stick closed form C(n+k, k) − 1; the
  // reference is §3's definition, Σ_{j=1..n} μ_k(j), summed term by term.
  for (const std::uint32_t k : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 64u, 1000u}) {
    for (const std::uint32_t n : {0u, 1u, 2u, 3u, 5u, 8u, 10u, 64u, 300u}) {
      BigUint expected;
      for (std::uint32_t j = 1; j <= n; ++j) expected += mu(k, j);
      EXPECT_EQ(zeta(k, n), expected) << "k=" << k << " n=" << n;
    }
  }
}

TEST(Zeta, PaperInequality) {
  // §3: ζ_k(n) ≤ n·μ_k(n).
  for (std::uint32_t k = 2; k <= 8; ++k) {
    for (std::uint32_t n = 1; n <= 12; ++n) {
      EXPECT_LE(zeta(k, n), mu(k, n) * BigUint{n});
    }
  }
}

TEST(FloorLog2Mu, MatchesBitLength) {
  EXPECT_EQ(floor_log2_mu(2, 3), 2u);   // μ=4 → 2 bits
  EXPECT_EQ(floor_log2_mu(3, 2), 2u);   // μ=6 → 2 bits
  EXPECT_EQ(floor_log2_mu(2, 1), 1u);   // μ=2 → 1 bit
  EXPECT_EQ(floor_log2_mu(1, 5), 0u);   // μ=1 → 0 bits
  for (std::uint32_t k = 2; k <= 16; k *= 2) {
    for (std::uint32_t n = 1; n <= 20; ++n) {
      const double exact = log2_mu(k, n);
      const auto floor_val = static_cast<double>(floor_log2_mu(k, n));
      EXPECT_LE(floor_val, exact + 1e-9);
      EXPECT_GT(floor_val + 1.0, exact - 1e-9);
    }
  }
}

TEST(Log2, MuAndZetaConsistent) {
  // log2 ζ ≥ log2 μ (ζ includes μ's multisets), and both positive.
  for (std::uint32_t k = 2; k <= 12; ++k) {
    for (std::uint32_t n = 1; n <= 15; ++n) {
      EXPECT_GE(log2_zeta(k, n), log2_mu(k, n) - 1e-9);
      EXPECT_GT(log2_zeta(k, n), 0.0);
    }
  }
}

TEST(Log2, AgainstLgamma) {
  // Cross-check log2 μ_k(n) against lgamma-based floating binomials.
  for (std::uint32_t k = 2; k <= 64; k += 7) {
    for (std::uint32_t n = 1; n <= 64; n += 7) {
      const double expect = (std::lgamma(static_cast<double>(n + k)) -
                             std::lgamma(static_cast<double>(k)) -
                             std::lgamma(static_cast<double>(n + 1))) /
                            std::log(2.0);
      EXPECT_NEAR(log2_mu(k, n), expect, 1e-6) << "k=" << k << " n=" << n;
    }
  }
}

TEST(Counting, ContractViolations) {
  EXPECT_THROW((void)mu(0, 3), ContractViolation);
  EXPECT_THROW((void)zeta(0, 3), ContractViolation);
  EXPECT_THROW((void)log2_zeta(2, 0), ContractViolation);  // ζ_k(0)=0
}

}  // namespace
}  // namespace rstp::combinatorics
