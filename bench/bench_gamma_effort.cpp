// E3 (paper §6.2, Figure 4): effort of the active protocol A^γ(k) vs its
// upper bound (3d + c2)/⌊log2 μ_k(δ2)⌋ and the Theorem 5.6 lower bound
// d/log2 ζ_k(δ2).
//
// Two sweeps: over k (alphabet) and over c2 (timing uncertainty, which sets
// δ2 = ⌊d/c2⌋ — the active protocol's block size shrinks as processes get
// slower). Expected shape: effort decreases in k, increases as c2 grows, and
// the measured value sits inside the [Thm 5.6, §6.2] band on every row.
#include "paper_claims.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"

bool rstp::bench::e3_gamma_effort() {
  using core::Environment;
  using protocols::ProtocolKind;

  bool all_ok = true;

  {
    const auto params = core::TimingParams::make(1, 2, 16);
    print_header("E3a: A^gamma(k) effort over k, c1=1 c2=2 d=16 (delta2=8) [worst case]");
    std::printf("%6s %6s | %12s %12s %12s | %10s %8s\n", "k", "B", "measured", "upper_6.2",
                "lower_5.6", "up/low", "check");
    print_rule(84);
    double prev = 1e300;
    for (const std::uint32_t k : {2u, 3u, 4u, 8u, 16u, 32u, 64u}) {
      const core::BoundsReport bounds = core::compute_bounds(params, k);
      const std::size_t n = bounds.gamma_bits_per_block * 64;
      const auto m =
          core::measure_effort(ProtocolKind::Gamma, params, k, n, Environment::worst_case());
      const bool ok = m.output_correct && m.effort <= bounds.gamma_upper * (1 + 1e-9) &&
                      m.effort >= bounds.active_lower * 0.75 && m.effort <= prev + 1e-9;
      all_ok = all_ok && ok;
      prev = m.effort;
      std::printf("%6u %6zu | %12.4f %12.4f %12.4f | %10.3f %8s\n", k,
                  bounds.gamma_bits_per_block, m.effort, bounds.gamma_upper, bounds.active_lower,
                  bounds.active_ratio(), verdict(ok));
    }
    print_rule(84);
  }

  {
    print_header("E3b: A^gamma(8) effort over c2 (timing uncertainty), c1=1 d=24");
    std::printf("%6s %6s %6s | %12s %12s %12s %8s\n", "c2", "dlt2", "B", "measured", "upper_6.2",
                "lower_5.6", "check");
    print_rule(76);
    for (const std::int64_t c2 : {1, 2, 3, 4, 6, 8, 12, 24}) {
      const auto params = core::TimingParams::make(1, c2, 24);
      const core::BoundsReport bounds = core::compute_bounds(params, 8);
      const std::size_t n = bounds.gamma_bits_per_block * 64;
      const auto m =
          core::measure_effort(ProtocolKind::Gamma, params, 8, n, Environment::worst_case());
      const bool ok = m.output_correct && m.effort <= bounds.gamma_upper * (1 + 1e-9) &&
                      m.effort >= bounds.active_lower * 0.75;
      all_ok = all_ok && ok;
      std::printf("%6lld %6lld %6zu | %12.4f %12.4f %12.4f %8s\n", static_cast<long long>(c2),
                  static_cast<long long>(bounds.delta2), bounds.gamma_bits_per_block, m.effort,
                  bounds.gamma_upper, bounds.active_lower, verdict(ok));
    }
    print_rule(76);
  }

  std::printf("E3 verdict: %s — gamma effort within [Thm5.6, sec6.2] across both sweeps\n",
              verdict(all_ok));
  return all_ok;
}
