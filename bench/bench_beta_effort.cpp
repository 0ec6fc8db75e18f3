// E2 (paper §6.1, Figure 3 / Lemma 6.1): effort of A^β(k) vs its upper bound
// 2δ1·c2/⌊log2 μ_k(δ1)⌋ and the Theorem 5.3 lower bound δ1·c2/log2 ζ_k(δ1).
//
// Sweeps k at two δ regimes. Expected shape (the paper's qualitative claims):
//   * effort decreases monotonically in k (larger alphabet, more bits/block);
//   * measured ≤ upper bound on every row (with |X| block-aligned);
//   * measured ≥ lower bound — the construction can't beat Theorem 5.3;
//   * upper/lower ratio stays an O(1) constant across the whole sweep
//     ("asymptotically optimal").
#include "paper_claims.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"

bool rstp::bench::e2_beta_effort() {
  using core::Environment;
  using protocols::ProtocolKind;

  bool all_ok = true;
  for (const std::int64_t d : {8, 32}) {
    const auto params = core::TimingParams::make(1, 2, d);
    print_header("E2: A^beta(k) effort, c1=1 c2=2 d=%lld (delta1=%lld)  [worst case]",
                 static_cast<long long>(d), static_cast<long long>(d));
    std::printf("%6s %6s | %12s %12s %12s | %10s %10s %8s\n", "k", "B", "measured",
                "upper_6.1", "lower_5.3", "meas/low", "up/low", "check");
    print_rule(96);
    double prev = 1e300;
    for (const std::uint32_t k : {2u, 3u, 4u, 8u, 16u, 32u, 64u, 128u}) {
      const core::BoundsReport bounds = core::compute_bounds(params, k);
      const std::size_t n = bounds.beta_bits_per_block * 64;  // block-aligned
      const auto m =
          core::measure_effort(ProtocolKind::Beta, params, k, n, Environment::worst_case());
      const bool ok = m.output_correct && m.effort <= bounds.beta_upper * (1 + 1e-9) &&
                      m.effort >= bounds.passive_lower * 0.75 && m.effort <= prev + 1e-9;
      all_ok = all_ok && ok;
      prev = m.effort;
      std::printf("%6u %6zu | %12.4f %12.4f %12.4f | %10.3f %10.3f %8s\n", k,
                  bounds.beta_bits_per_block, m.effort, bounds.beta_upper, bounds.passive_lower,
                  m.effort / bounds.passive_lower, bounds.passive_ratio(), verdict(ok));
    }
    print_rule(96);
  }
  std::printf("E2 verdict: %s — beta effort within [Thm5.3, Lemma6.1] and decreasing in k\n",
              verdict(all_ok));
  return all_ok;
}
