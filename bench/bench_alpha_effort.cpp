// E1 (paper §4, Figure 1): effort of the simple r-passive protocol A^α.
//
// Paper claim: eff(A^α) = d·c2/c1 (here: ⌈d/c1⌉·c2 over integer ticks, which
// equals the paper's value whenever c1 | d).
//
// This harness sweeps (c1, c2, d), measures t(last-send)/n in the worst-case
// environment (both processes at c2, deliveries at +d), and prints the
// measured effort next to the closed form. Expected: measured → closed form
// as n grows (the only deviation is the missing final wait phase, an O(1/n)
// tail), and ratio ≈ 1.000 in every row.
#include "paper_claims.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"

bool rstp::bench::e1_alpha_effort() {
  using core::Environment;
  using protocols::ProtocolKind;

  print_header("E1: A^alpha effort vs closed form d*c2/c1 (worst-case environment)");
  std::printf("%6s %6s %6s %8s | %12s %12s %8s %8s\n", "c1", "c2", "d", "n", "measured",
              "closed_form", "ratio", "check");
  print_rule(84);

  const std::int64_t grid[][3] = {
      {1, 1, 1},  {1, 1, 4},  {1, 2, 4},  {1, 2, 8},  {2, 2, 8},  {2, 3, 8},
      {2, 4, 16}, {3, 5, 15}, {3, 5, 17}, {4, 4, 32}, {1, 8, 8},  {1, 4, 64},
  };
  bool all_ok = true;
  for (const auto& row : grid) {
    const auto params = core::TimingParams::make(row[0], row[1], row[2]);
    const std::size_t n = 2048;
    const auto m =
        core::measure_effort(ProtocolKind::Alpha, params, 2, n, Environment::worst_case());
    const core::BoundsReport bounds = core::compute_bounds(params, 2);
    const double ratio = m.effort / bounds.alpha_effort;
    // The measured figure misses only the final message's wait phase.
    const bool ok = m.output_correct && ratio <= 1.0 + 1e-9 &&
                    ratio >= 1.0 - 2.0 / static_cast<double>(n);
    all_ok = all_ok && ok;
    std::printf("%6lld %6lld %6lld %8zu | %12.4f %12.4f %8.4f %8s\n",
                static_cast<long long>(row[0]), static_cast<long long>(row[1]),
                static_cast<long long>(row[2]), n, m.effort, bounds.alpha_effort, ratio,
                verdict(ok));
  }
  print_rule(84);
  std::printf("E1 verdict: %s — eff(A^alpha) matches d*c2/c1 on every row\n",
              verdict(all_ok));
  return all_ok;
}
