// Closed-form effort bounds (paper §5 and §6).
//
// Lower bounds (every solution pays at least this, asymptotically):
//   Theorem 5.3 (r-passive):  eff ≥ δ1·c2 / log2(ζ_k(δ1))
//   Theorem 5.6 (active):     eff ≥ d / log2(ζ_k(δ2))
// Upper bounds (the paper's constructions achieve these):
//   §4   A^α:     eff = (d/c1)·c2           (exact, = ⌈d/c1⌉·c2 here)
//   §6.1 A^β(k):  eff ≤ 2δ1·c2 / ⌊log2 μ_k(δ1)⌋
//   §6.2 A^γ(k):  eff ≤ (3d + c2) / ⌊log2 μ_k(δ2)⌋
// All logs are base 2 because |M| = 2 in the paper; efforts are per message
// bit, in ticks. The upper/lower ratios are O(1) in k and δ — the paper's
// "asymptotically optimal" claim — which the E4/E5 benches tabulate.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "rstp/core/params.h"

namespace rstp::core {

struct BoundsReport {
  TimingParams params{};
  std::uint32_t k = 2;

  std::int64_t delta1 = 0;       ///< ⌊d/c1⌋
  std::int64_t delta1_wait = 0;  ///< ⌈d/c1⌉ (protocol block/wait size)
  std::int64_t delta2 = 0;       ///< ⌊d/c2⌋

  std::size_t beta_bits_per_block = 0;   ///< ⌊log2 μ_k(δ1_wait)⌋
  std::size_t gamma_bits_per_block = 0;  ///< ⌊log2 μ_k(δ2)⌋

  double passive_lower = 0;  ///< Theorem 5.3
  double active_lower = 0;   ///< Theorem 5.6
  double alpha_effort = 0;   ///< A^α worst case (exact)
  double beta_upper = 0;     ///< A^β(k) worst case
  double gamma_upper = 0;    ///< A^γ(k) worst case
  double altbit_upper = 0;   ///< stop-and-wait worst case, ≈ 2d + 2c2 per bit

  /// Optimality ratios (upper / matching lower); O(1) per the paper.
  [[nodiscard]] double passive_ratio() const { return beta_upper / passive_lower; }
  [[nodiscard]] double active_ratio() const { return gamma_upper / active_lower; }
};

/// The largest min(k, ⌈d/c1⌉) `rstp bounds` takes. compute_bounds computes
/// μ_k(δ) and ζ_k(δ) exactly, at a cost quadratic in min(k, δ): at the limit
/// 0.3 s with k = δ, 2.1 s with the other one at 2^32 − 1 (gcc 12.2
/// RelWithDebInfo, 4-core x86-64 VM).
inline constexpr std::uint64_t kMaxExactBoundsSize = 20'000;

/// Computes every bound for the given parameters. Requires k >= 2 and valid
/// timing parameters.
[[nodiscard]] BoundsReport compute_bounds(const TimingParams& params, std::uint32_t k);

std::ostream& operator<<(std::ostream& os, const BoundsReport& report);

}  // namespace rstp::core
