// E14 — the effort definition (paper §4), visualized.
//
// eff(A) is a suplim: max over good executions of t(last-send)/n, as n→∞.
// This harness measures effort(n) for n growing 16→4096 in the worst-case
// environment, Richardson-extrapolates the limit (finite runs differ from it
// by an O(1/n) tail — the missing final round — so eff ≈ 2·e(2n) − e(n)),
// and compares the extrapolated limit to the closed-form upper bound:
//   * α and β: the bound is TIGHT — the limit matches it to 4+ digits;
//   * γ: within ~15% (the 3d+c2 analysis does not credit the overlap of
//     block transmission with the first packets' delivery);
//   * stop-and-wait: the 2d+2c2 bound is conservative by ~20% (under FIFO
//     max delay the receiver's ack step partially overlaps the next cycle).
// In every case the bound dominates the limit and effort(n) increases to it
// — exactly the suplim behaviour the definition prescribes.
#include <cmath>
#include <string>

#include "paper_claims.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"

bool rstp::bench::e14_convergence() {
  using core::Environment;
  using protocols::ProtocolKind;

  const auto params = core::TimingParams::make(1, 2, 8);
  const core::BoundsReport bounds = core::compute_bounds(params, 8);
  bool all_ok = true;

  struct Row {
    ProtocolKind kind;
    double bound;
    std::size_t align;   // block alignment for n
    double tightness;    // required limit/bound ratio floor
  };
  const Row rows[] = {
      {ProtocolKind::Alpha, bounds.alpha_effort, 1, 0.999},
      {ProtocolKind::Beta, bounds.beta_upper, bounds.beta_bits_per_block, 0.999},
      {ProtocolKind::Gamma, bounds.gamma_upper, bounds.gamma_bits_per_block, 0.80},
      {ProtocolKind::AltBit, bounds.altbit_upper, 1, 0.75},
  };

  for (const Row& row : rows) {
    print_header("E14: effort(n) -> eff(A) for %s (c1=1 c2=2 d=8 k=8; closed-form bound %.4f)",
                 std::string(protocols::to_string(row.kind)).c_str(), row.bound);
    std::printf("%8s | %12s %14s\n", "n", "effort(n)", "extrap. limit");
    print_rule(40);
    double prev_effort = -1;
    double prev_n = 0;
    double limit = 0;
    for (std::size_t base = 16; base <= 4096; base *= 4) {
      const std::size_t n = ((base + row.align - 1) / row.align) * row.align;
      const auto m = core::measure_effort(row.kind, params, 8, n, Environment::worst_case());
      if (!m.output_correct) {
        all_ok = false;
        continue;
      }
      // Richardson step for a c0 − c1/n model with unequal n spacing.
      if (prev_effort >= 0) {
        const double nn = static_cast<double>(n);
        limit = (nn * m.effort - prev_n * prev_effort) / (nn - prev_n);
        std::printf("%8zu | %12.5f %14.5f\n", n, m.effort, limit);
      } else {
        std::printf("%8zu | %12.5f %14s\n", n, m.effort, "-");
      }
      // Suplim shape: effort(n) non-decreasing toward the limit.
      all_ok = all_ok && m.effort >= prev_effort - 1e-9;
      prev_effort = m.effort;
      prev_n = static_cast<double>(n);
    }
    print_rule(40);
    const double ratio = limit / row.bound;
    const bool ok = limit <= row.bound * (1 + 1e-6) && ratio >= row.tightness;
    all_ok = all_ok && ok;
    std::printf("limit/bound = %.4f  (bound %s)  %s\n", ratio,
                ratio > 0.99 ? "TIGHT" : "conservative", verdict(ok));
  }
  std::printf("\nE14 verdict: %s — effort(n) increases to a limit the closed forms dominate; "
              "alpha/beta bounds are exactly tight\n",
              verdict(all_ok));
  return all_ok;
}
