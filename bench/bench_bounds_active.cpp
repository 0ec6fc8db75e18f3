// E5 (Theorem 5.6): the active lower bound table and the optimality gap.
//
// Same layout as E4 but for the active case: lower bound d/log2 ζ_k(δ2),
// upper bound (3d + c2)/⌊log2 μ_k(δ2)⌋ achieved by A^γ(k). Also prints the
// passive lower bound for the same parameters, showing the paper's key
// structural point: the active bound depends on δ2 = d/c2 (what a SLOW
// process can do in d time) while the passive bound depends on δ1 = d/c1 —
// so as timing uncertainty c2/c1 grows the two bounds diverge.
#include "paper_claims.h"
#include "rstp/combinatorics/binomial.h"
#include "rstp/core/bounds.h"

bool rstp::bench::e5_bounds_active() {
  print_header("E5: Theorem 5.6 (active lower bound) vs sec-6.2 upper bound, c1=1 c2=2");
  std::printf("%6s %6s | %10s %10s | %12s %12s %8s | %12s\n", "k", "dlt2", "log2(mu)",
              "log2(zeta)", "lower_5.6", "upper_6.2", "ratio", "passive_5.3");
  print_rule(100);

  bool all_ok = true;
  for (const std::uint32_t k : {2u, 4u, 8u, 16u, 64u, 256u}) {
    for (const std::int64_t d : {2, 4, 8, 16, 32, 64, 128}) {
      const auto params = core::TimingParams::make(1, 2, d);
      const core::BoundsReport r = core::compute_bounds(params, k);
      const auto delta2 = static_cast<std::uint32_t>(r.delta2);
      const bool ok = r.active_ratio() >= 1.0 && r.active_ratio() < 10.0;
      all_ok = all_ok && ok;
      std::printf("%6u %6lld | %10.3f %10.3f | %12.4f %12.4f %8.3f | %12.4f\n", k,
                  static_cast<long long>(d), combinatorics::log2_mu(k, delta2),
                  combinatorics::log2_zeta(k, delta2), r.active_lower, r.gamma_upper,
                  r.active_ratio(), r.passive_lower);
    }
    print_rule(100);
  }

  print_header("E5b: bound divergence as timing uncertainty grows (k=8, d=64, c1=1)");
  std::printf("%6s %6s %6s | %12s %12s | %12s %12s\n", "c2", "dlt1", "dlt2", "passive_low",
              "active_low", "beta_up", "gamma_up");
  print_rule(84);
  for (const std::int64_t c2 : {1, 2, 4, 8, 16, 32, 64}) {
    const auto params = core::TimingParams::make(1, c2, 64);
    const core::BoundsReport r = core::compute_bounds(params, 8);
    std::printf("%6lld %6lld %6lld | %12.4f %12.4f | %12.4f %12.4f\n",
                static_cast<long long>(c2), static_cast<long long>(r.delta1),
                static_cast<long long>(r.delta2), r.passive_lower, r.active_lower, r.beta_upper,
                r.gamma_upper);
  }
  print_rule(84);
  std::printf("E5 verdict: %s — active ratio bounded; passive/active bounds diverge with c2/c1\n",
              verdict(all_ok));
  return all_ok;
}
