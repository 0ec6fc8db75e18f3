// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library (randomized schedulers, random
// delivery policies, property-test input generation) draws from an Rng seeded
// explicitly by the caller, so that every run — including failures found by
// property tests — is reproducible from its seed.
//
// The generator is xoshiro256**, seeded through SplitMix64 per the authors'
// recommendation. Both are tiny, fast, public-domain algorithms; we implement
// them here rather than using <random> engines because their output is
// specified exactly (bit-for-bit reproducibility across standard libraries).
#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "rstp/common/check.h"
#include "rstp/common/time.h"

namespace rstp {

/// SplitMix64: used to expand a 64-bit seed into xoshiro state, and handy as
/// a standalone mixing function for deriving per-component subseeds.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** pseudo-random generator with convenience distributions.
class Rng {
 public:
  /// Seeds the generator. Distinct seeds give independent-looking streams;
  /// the all-zero internal state is unreachable by construction.
  explicit Rng(std::uint64_t seed);

  /// Next raw 64 random bits. Inline, as are next_double and next_bool: they
  /// run once per input bit and per random step, gap or delay.
  [[nodiscard]] std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be positive. Uses rejection
  /// sampling (Lemire-style) so the distribution is exactly uniform.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in the closed range [lo, hi].
  [[nodiscard]] std::int64_t next_in(std::int64_t lo, std::int64_t hi);

  /// Uniform Duration in the closed range [lo, hi].
  [[nodiscard]] Duration next_duration(Duration lo, Duration hi);

  /// Uniform double in [0, 1): 53 random bits scaled.
  [[nodiscard]] double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Bernoulli(p) draw.
  [[nodiscard]] bool next_bool(double p = 0.5) {
    RSTP_CHECK(p >= 0.0 && p <= 1.0, "probability out of range");
    return next_double() < p;
  }

  /// Derive an independent child generator; used to give each component of a
  /// simulation (scheduler, channel, workload) its own stream so adding draws
  /// to one component does not perturb another.
  [[nodiscard]] Rng fork();

 private:
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace rstp
