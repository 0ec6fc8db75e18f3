#include "rstp/common/rng.h"

namespace rstp {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
  // xoshiro256** requires a nonzero state; SplitMix64 cannot emit four zero
  // words from any seed, but guard anyway to keep the invariant local.
  if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) {
    state_[0] = 0x9E3779B97F4A7C15ULL;
  }
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  RSTP_CHECK(bound > 0, "next_below requires a positive bound");
  // Lemire's multiply-shift with rejection for exact uniformity.
  std::uint64_t x = next_u64();
  unsigned __int128 m = static_cast<unsigned __int128>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<unsigned __int128>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::next_in(std::int64_t lo, std::int64_t hi) {
  RSTP_CHECK_LE(lo, hi, "next_in requires lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // span == 0 means the full 64-bit range [INT64_MIN, INT64_MAX].
  const std::uint64_t draw = (span == 0) ? next_u64() : next_below(span);
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + draw);
}

Duration Rng::next_duration(Duration lo, Duration hi) {
  return Duration{next_in(lo.ticks(), hi.ticks())};
}

Rng Rng::fork() { return Rng{next_u64()}; }

}  // namespace rstp
