#include "rstp/bigint/biguint.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <ostream>

#include "rstp/common/check.h"

namespace rstp::bigint {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr std::size_t kLimbBits = 64;

}  // namespace

BigUint::BigUint(u64 value) {
  if (value != 0) {
    limbs_.push_back(value);
  }
}

BigUint BigUint::from_decimal(std::string_view text) {
  RSTP_CHECK(!text.empty(), "empty decimal string");
  BigUint result;
  for (char c : text) {
    RSTP_CHECK(std::isdigit(static_cast<unsigned char>(c)), "non-digit in decimal string");
    result.mul_u64(10);
    result.add_u64(static_cast<u64>(c - '0'));
  }
  return result;
}

BigUint BigUint::pow2(std::size_t exponent) {
  BigUint result{1};
  result <<= exponent;
  return result;
}

BigUint BigUint::from_limbs(std::span<const u64> limbs) {
  BigUint result;
  limbs = significant(limbs);
  result.limbs_.assign(limbs.begin(), limbs.end());
  return result;
}

void BigUint::normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) {
    limbs_.pop_back();
  }
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  return (limbs_.size() - 1) * kLimbBits +
         (kLimbBits - static_cast<std::size_t>(std::countl_zero(limbs_.back())));
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / kLimbBits;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % kLimbBits)) & 1ULL;
}

u64 BigUint::to_u64() const {
  RSTP_CHECK(fits_u64(), "BigUint does not fit in uint64_t");
  return limbs_.empty() ? 0 : limbs_[0];
}

double BigUint::to_double() const {
  double result = 0.0;
  for (auto it = limbs_.rbegin(); it != limbs_.rend(); ++it) {
    result = result * 0x1.0p64 + static_cast<double>(*it);
  }
  return result;
}

double BigUint::log2() const {
  RSTP_CHECK(!is_zero(), "log2 of zero");
  // Take the top <=128 significant bits as a double in [1, 2), add bit count.
  const std::size_t bits = bit_length();
  if (bits <= 64) {
    return std::log2(static_cast<double>(limbs_[0]));
  }
  // Compose the top two limbs into a double mantissa.
  const u64 hi = limbs_.back();
  const u64 lo = limbs_[limbs_.size() - 2];
  const double top = static_cast<double>(hi) * 0x1.0p64 + static_cast<double>(lo);
  const double exponent = static_cast<double>((limbs_.size() - 2) * kLimbBits);
  return std::log2(top) + exponent;
}

std::string BigUint::to_decimal() const {
  if (is_zero()) return "0";
  std::string digits;
  BigUint scratch = *this;
  while (!scratch.is_zero()) {
    u64 remainder = 0;
    scratch = scratch.div_u64(10, remainder);
    digits.push_back(static_cast<char>('0' + remainder));
  }
  std::reverse(digits.begin(), digits.end());
  return digits;
}

BigUint& BigUint::add_normalized(std::span<const u64> rhs) {
  // Single-limb fast path: the codec's small-k values live here, and the
  // general path's resize/push_back would touch the allocator per operation.
  if (limbs_.size() <= 1 && rhs.size() <= 1) {
    const u64 a = limbs_.empty() ? 0 : limbs_[0];
    const u64 b = rhs.empty() ? 0 : rhs[0];
    const u128 sum = static_cast<u128>(a) + b;
    const u64 lo = static_cast<u64>(sum);
    const u64 hi = static_cast<u64>(sum >> kLimbBits);
    if (hi != 0) {
      limbs_.assign({lo, hi});
    } else if (lo != 0) {
      limbs_.assign(1, lo);
    } else {
      limbs_.clear();
    }
    return *this;
  }
  const std::size_t n = std::max(limbs_.size(), rhs.size());
  limbs_.reserve(n + 1);  // one allocation even if the final carry spills
  limbs_.resize(n, 0);
  u64 carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 b = i < rhs.size() ? rhs[i] : 0;
    const u128 sum = static_cast<u128>(limbs_[i]) + b + carry;
    limbs_[i] = static_cast<u64>(sum);
    carry = static_cast<u64>(sum >> kLimbBits);
  }
  if (carry != 0) limbs_.push_back(carry);
  return *this;
}

BigUint& BigUint::sub_normalized(std::span<const u64> rhs) {
  RSTP_CHECK(compare_normalized(rhs) >= 0, "BigUint subtraction underflow");
  if (limbs_.size() <= 1) {  // rhs.size() <= 1 follows from *this >= rhs
    const u64 a = limbs_.empty() ? 0 : limbs_[0];
    const u64 b = rhs.empty() ? 0 : rhs[0];
    const u64 diff = a - b;
    if (diff != 0) {
      limbs_.assign(1, diff);
    } else {
      limbs_.clear();
    }
    return *this;
  }
  u64 borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const u64 b = i < rhs.size() ? rhs[i] : 0;
    const u128 lhs = static_cast<u128>(limbs_[i]);
    const u128 sub = static_cast<u128>(b) + borrow;
    if (lhs >= sub) {
      limbs_[i] = static_cast<u64>(lhs - sub);
      borrow = 0;
    } else {
      limbs_[i] = static_cast<u64>((static_cast<u128>(1) << kLimbBits) + lhs - sub);
      borrow = 1;
    }
  }
  RSTP_CHECK_EQ(borrow, u64{0});
  normalize();
  return *this;
}

BigUint operator*(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return BigUint{};
  BigUint result;
  result.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    u64 carry = 0;
    for (std::size_t j = 0; j < b.limbs_.size(); ++j) {
      const u128 cur = static_cast<u128>(a.limbs_[i]) * b.limbs_[j] + result.limbs_[i + j] + carry;
      result.limbs_[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    result.limbs_[i + b.limbs_.size()] += carry;
  }
  result.normalize();
  return result;
}

BigUint& BigUint::operator*=(const BigUint& rhs) {
  *this = *this * rhs;
  return *this;
}

BigUint& BigUint::operator<<=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / kLimbBits;
  const std::size_t bit_shift = bits % kLimbBits;
  limbs_.insert(limbs_.begin(), limb_shift, 0);
  if (bit_shift != 0) {
    u64 carry = 0;
    for (std::size_t i = limb_shift; i < limbs_.size(); ++i) {
      const u64 cur = limbs_[i];
      limbs_[i] = (cur << bit_shift) | carry;
      carry = cur >> (kLimbBits - bit_shift);
    }
    if (carry != 0) limbs_.push_back(carry);
  }
  return *this;
}

BigUint& BigUint::operator>>=(std::size_t bits) {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / kLimbBits;
  const std::size_t bit_shift = bits % kLimbBits;
  if (limb_shift >= limbs_.size()) {
    limbs_.clear();
    return *this;
  }
  limbs_.erase(limbs_.begin(), limbs_.begin() + static_cast<std::ptrdiff_t>(limb_shift));
  if (bit_shift != 0) {
    for (std::size_t i = 0; i < limbs_.size(); ++i) {
      limbs_[i] >>= bit_shift;
      if (i + 1 < limbs_.size()) {
        limbs_[i] |= limbs_[i + 1] << (kLimbBits - bit_shift);
      }
    }
  }
  normalize();
  return *this;
}

BigUint BigUint::div_u64(u64 divisor, u64& remainder) const {
  RSTP_CHECK(divisor != 0, "division by zero");
  BigUint quotient;
  quotient.limbs_.assign(limbs_.size(), 0);
  u128 rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    const u128 cur = (rem << kLimbBits) | limbs_[i];
    quotient.limbs_[i] = static_cast<u64>(cur / divisor);
    rem = cur % divisor;
  }
  quotient.normalize();
  remainder = static_cast<u64>(rem);
  return quotient;
}

BigUint& BigUint::mul_u64(u64 factor) {
  if (factor == 0) {
    limbs_.clear();
    return *this;
  }
  u64 carry = 0;
  for (auto& limb : limbs_) {
    const u128 cur = static_cast<u128>(limb) * factor + carry;
    limb = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> kLimbBits);
  }
  if (carry != 0) limbs_.push_back(carry);
  return *this;
}

BigUint& BigUint::add_u64(u64 addend) {
  if (limbs_.size() <= 1) {
    const u128 sum = static_cast<u128>(limbs_.empty() ? 0 : limbs_[0]) + addend;
    const u64 lo = static_cast<u64>(sum);
    const u64 hi = static_cast<u64>(sum >> kLimbBits);
    if (hi != 0) {
      limbs_.assign({lo, hi});
    } else if (lo != 0) {
      limbs_.assign(1, lo);
    } else {
      limbs_.clear();
    }
    return *this;
  }
  u64 carry = addend;
  for (auto& limb : limbs_) {
    if (carry == 0) break;
    const u128 cur = static_cast<u128>(limb) + carry;
    limb = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> kLimbBits);
  }
  if (carry != 0) limbs_.push_back(carry);
  return *this;
}

BigUint::DivModResult BigUint::divmod(const BigUint& numerator, const BigUint& denominator) {
  RSTP_CHECK(!denominator.is_zero(), "division by zero");
  if (numerator < denominator) {
    return {BigUint{}, numerator};
  }
  if (denominator.limbs_.size() == 1) {
    u64 rem = 0;
    BigUint q = numerator.div_u64(denominator.limbs_[0], rem);
    return {std::move(q), BigUint{rem}};
  }
  // Shift-and-subtract long division over bits. The numbers in this library
  // are at most a few thousand bits, so the O(n^2/64) cost is negligible.
  BigUint quotient;
  BigUint remainder;
  const std::size_t total_bits = numerator.bit_length();
  quotient.limbs_.assign((total_bits + kLimbBits - 1) / kLimbBits, 0);
  for (std::size_t i = total_bits; i-- > 0;) {
    remainder <<= 1;
    if (numerator.bit(i)) {
      remainder.add_u64(1);
    }
    if (remainder >= denominator) {
      remainder -= denominator;
      quotient.limbs_[i / kLimbBits] |= (1ULL << (i % kLimbBits));
    }
  }
  quotient.normalize();
  return {std::move(quotient), std::move(remainder)};
}

std::strong_ordering BigUint::compare_normalized(std::span<const u64> rhs) const {
  if (limbs_.size() == 1 && rhs.size() == 1) {  // dominant codec case
    return limbs_[0] <=> rhs[0];
  }
  if (limbs_.size() != rhs.size()) {
    return limbs_.size() <=> rhs.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != rhs[i]) {
      return limbs_[i] <=> rhs[i];
    }
  }
  return std::strong_ordering::equal;
}

std::ostream& operator<<(std::ostream& os, const BigUint& v) { return os << v.to_decimal(); }

}  // namespace rstp::bigint
