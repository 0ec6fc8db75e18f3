// BigUint: arbitrary-precision unsigned integers.
//
// Why it exists: the paper's encodings and bounds are built on the counts
// μ_k(n) = C(n+k-1, k-1) and ζ_k(n) = Σ_{j≤n} μ_k(j). For realistic model
// parameters (δ up to a few hundred, k up to a few thousand) these counts
// vastly overflow 64- and 128-bit integers, yet the multiset rank/unrank
// codec (combinatorics/) must be *exactly* injective — a single off-by-one
// from floating-point rounding would silently corrupt transmitted data. So
// the codec and the bound tables run on exact big integers.
//
// Representation: little-endian vector of 64-bit limbs, normalized (no
// trailing zero limbs; zero is the empty vector). The class is a regular
// value type with the usual arithmetic operators, full ordering, exact
// divmod, bit operations, and decimal/double conversions.
#pragma once

#include <compare>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rstp::bigint {

class BigUint {
 public:
  /// Zero.
  BigUint() = default;

  /// From a machine word.
  explicit BigUint(std::uint64_t value);

  /// Parse a non-empty decimal string (digits only). Throws
  /// rstp::ContractViolation on malformed input.
  [[nodiscard]] static BigUint from_decimal(std::string_view text);

  /// 2^exponent.
  [[nodiscard]] static BigUint pow2(std::size_t exponent);

  /// From little-endian 64-bit limbs; trailing zero limbs are allowed.
  [[nodiscard]] static BigUint from_limbs(std::span<const std::uint64_t> limbs);

  // --- observers ---------------------------------------------------------

  [[nodiscard]] bool is_zero() const { return limbs_.empty(); }

  /// Number of significant bits; 0 for zero (so bit_length()-1 is floor(log2)
  /// for nonzero values).
  [[nodiscard]] std::size_t bit_length() const;

  /// Value of bit `i` (i counts from the least significant bit).
  [[nodiscard]] bool bit(std::size_t i) const;

  /// The little-endian 64-bit limbs, normalized (empty for zero).
  [[nodiscard]] std::span<const std::uint64_t> limbs() const { return limbs_; }

  /// True iff the value fits in a u64.
  [[nodiscard]] bool fits_u64() const { return limbs_.size() <= 1; }

  /// Low 64 bits if fits_u64(), otherwise throws.
  [[nodiscard]] std::uint64_t to_u64() const;

  /// Nearest double (may overflow to +inf for enormous values).
  [[nodiscard]] double to_double() const;

  /// log2 of the value as a double, exact to double precision; requires a
  /// nonzero value. Works far beyond double range (uses the top limbs plus
  /// the bit length).
  [[nodiscard]] double log2() const;

  /// Decimal rendering.
  [[nodiscard]] std::string to_decimal() const;

  // --- arithmetic --------------------------------------------------------

  BigUint& operator+=(const BigUint& rhs) {
    // x += x doubles: add_normalized may reallocate limbs_ while reading rhs.
    return &rhs == this ? *this <<= 1 : add_normalized(rhs.limbs_);
  }
  /// Requires *this >= rhs.
  BigUint& operator-=(const BigUint& rhs) { return sub_normalized(rhs.limbs_); }
  BigUint& operator*=(const BigUint& rhs);
  BigUint& operator<<=(std::size_t bits);
  BigUint& operator>>=(std::size_t bits);

  friend BigUint operator+(BigUint a, const BigUint& b) { return a += b; }
  friend BigUint operator-(BigUint a, const BigUint& b) { return a -= b; }
  friend BigUint operator*(const BigUint& a, const BigUint& b);
  friend BigUint operator<<(BigUint a, std::size_t bits) { return a <<= bits; }
  friend BigUint operator>>(BigUint a, std::size_t bits) { return a >>= bits; }

  /// Quotient and remainder in one pass. Throws on division by zero.
  struct DivModResult;
  [[nodiscard]] static DivModResult divmod(const BigUint& numerator, const BigUint& denominator);

  friend BigUint operator/(const BigUint& a, const BigUint& b);
  friend BigUint operator%(const BigUint& a, const BigUint& b);

  /// Exact division by a machine word with remainder out-param; faster than
  /// general divmod and used by the binomial pipeline.
  [[nodiscard]] BigUint div_u64(std::uint64_t divisor, std::uint64_t& remainder) const;

  /// +=, -= and <=> against a value given as little-endian limbs (trailing
  /// zero limbs allowed, not pointing into this value), without
  /// materializing it as a BigUint: the multiset codec's reference walk reads
  /// its fixed-width tables this way.
  BigUint& add_limbs(std::span<const std::uint64_t> rhs) {
    return add_normalized(significant(rhs));
  }
  /// Requires *this >= rhs.
  BigUint& sub_limbs(std::span<const std::uint64_t> rhs) {
    return sub_normalized(significant(rhs));
  }
  [[nodiscard]] std::strong_ordering compare_limbs(std::span<const std::uint64_t> rhs) const {
    return compare_normalized(significant(rhs));
  }

  BigUint& mul_u64(std::uint64_t factor);
  BigUint& add_u64(std::uint64_t addend);

  // --- comparison --------------------------------------------------------

  friend bool operator==(const BigUint& a, const BigUint& b) { return a.limbs_ == b.limbs_; }
  friend std::strong_ordering operator<=>(const BigUint& a, const BigUint& b) {
    return a.compare_normalized(b.limbs_);
  }

  friend std::ostream& operator<<(std::ostream& os, const BigUint& v);

 private:
  /// `limbs` without its trailing zero limbs.
  [[nodiscard]] static std::span<const std::uint64_t> significant(
      std::span<const std::uint64_t> limbs) {
    while (!limbs.empty() && limbs.back() == 0) limbs = limbs.first(limbs.size() - 1);
    return limbs;
  }

  // The arithmetic behind the operators and the *_limbs forms; rhs is
  // normalized (no trailing zero limbs) and does not point into limbs_.
  BigUint& add_normalized(std::span<const std::uint64_t> rhs);
  BigUint& sub_normalized(std::span<const std::uint64_t> rhs);
  [[nodiscard]] std::strong_ordering compare_normalized(std::span<const std::uint64_t> rhs) const;

  void normalize();

  std::vector<std::uint64_t> limbs_;  // little-endian, normalized
};

struct BigUint::DivModResult {
  BigUint quotient;
  BigUint remainder;
};

inline BigUint operator/(const BigUint& a, const BigUint& b) {
  return BigUint::divmod(a, b).quotient;
}
inline BigUint operator%(const BigUint& a, const BigUint& b) {
  return BigUint::divmod(a, b).remainder;
}

}  // namespace rstp::bigint
