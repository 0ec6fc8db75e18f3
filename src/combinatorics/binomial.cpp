#include "rstp/combinatorics/binomial.h"

#include "rstp/common/check.h"

namespace rstp::combinatorics {

using bigint::BigUint;

BigUint binomial(std::uint64_t n, std::uint64_t r) {
  if (r > n) return BigUint{};
  // Use the symmetric smaller index to shorten the product.
  if (r > n - r) r = n - r;
  // Multiplicative formula with exact stepwise division:
  //   C(n, i) = C(n, i-1) * (n - i + 1) / i, and each intermediate is an
  //   integer, so div_u64 never truncates.
  BigUint result{1};
  for (std::uint64_t i = 1; i <= r; ++i) {
    result.mul_u64(n - i + 1);
    std::uint64_t rem = 0;
    result = result.div_u64(i, rem);
    RSTP_CHECK_EQ(rem, std::uint64_t{0}, "binomial intermediate not divisible");
  }
  return result;
}

BigUint mu(std::uint32_t k, std::uint32_t n) {
  RSTP_CHECK_GE(k, 1u, "mu requires a non-empty universe");
  return binomial(static_cast<std::uint64_t>(n) + k - 1, k - 1);
}

BigUint zeta(std::uint32_t k, std::uint32_t n) {
  RSTP_CHECK_GE(k, 1u, "zeta requires a non-empty universe");
  // ζ_k(n) = Σ_{j=1..n} C(j+k-1, k-1) = C(n+k, k) - 1 (hockey-stick). The
  // closed form costs min(n, k) multiply-divide steps where the sum costs n
  // binomials; binomial_test checks it against the paper's sum.
  return binomial(static_cast<std::uint64_t>(n) + k, k) - BigUint{1};
}

std::size_t floor_log2_mu(std::uint32_t k, std::uint32_t n) {
  const BigUint m = mu(k, n);
  RSTP_CHECK(!m.is_zero(), "mu must be positive");
  return m.bit_length() - 1;
}

double log2_mu(std::uint32_t k, std::uint32_t n) { return mu(k, n).log2(); }

double log2_zeta(std::uint32_t k, std::uint32_t n) {
  const BigUint z = zeta(k, n);
  RSTP_CHECK(!z.is_zero(), "zeta must be positive (need n >= 1)");
  return z.log2();
}

}  // namespace rstp::combinatorics
