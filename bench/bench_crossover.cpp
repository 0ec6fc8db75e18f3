// E6 (§1/§6 discussion): passive vs active crossover.
//
// The passive protocol pays 2δ1 steps (each up to c2) per block — its cost
// scales with the timing-uncertainty ratio c2/c1, because it must idle long
// enough for the FASTEST possible clock while being charged at the SLOWEST.
// The active protocol pays ~3d + c2 per block regardless of c1. So:
//   * c2/c1 ≈ 1  → β wins (no uncertainty tax, no ack round trips);
//   * c2/c1 large → γ wins (acks replace conservative idling).
// This harness sweeps c2 at fixed c1=1, d=32, k=8 and prints measured
// efforts for both (block-aligned inputs, worst-case environment), locating
// the crossover. Expected: β's column grows ~linearly in c2; γ's stays
// roughly flat; a single crossover point.
#include "paper_claims.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"

bool rstp::bench::e6_crossover() {
  using core::Environment;
  using protocols::ProtocolKind;

  print_header("E6: passive (beta) vs active (gamma) crossover, c1=1 d=32 k=8");
  std::printf("%6s | %12s %12s %8s | %12s %12s\n", "c2", "beta_meas", "gamma_meas", "winner",
              "beta_upper", "gamma_upper");
  print_rule(76);

  int crossovers = 0;
  bool beta_was_winning = true;
  bool first = true;
  bool all_correct = true;
  for (const std::int64_t c2 : {1, 2, 4, 8, 16, 32}) {
    const auto params = core::TimingParams::make(1, c2, 32);
    const core::BoundsReport bounds = core::compute_bounds(params, 8);
    const auto beta = core::measure_effort(ProtocolKind::Beta, params, 8,
                                           bounds.beta_bits_per_block * 48,
                                           Environment::worst_case());
    const auto gamma = core::measure_effort(ProtocolKind::Gamma, params, 8,
                                            bounds.gamma_bits_per_block * 48,
                                            Environment::worst_case());
    all_correct = all_correct && beta.output_correct && gamma.output_correct;
    const bool beta_wins = beta.effort < gamma.effort;
    if (!first && beta_wins != beta_was_winning) ++crossovers;
    beta_was_winning = beta_wins;
    first = false;
    std::printf("%6lld | %12.4f %12.4f %8s | %12.4f %12.4f\n", static_cast<long long>(c2),
                beta.effort, gamma.effort, beta_wins ? "beta" : "gamma", bounds.beta_upper,
                bounds.gamma_upper);
  }
  print_rule(76);
  const bool shape_ok = all_correct && crossovers == 1 && !beta_was_winning;
  std::printf("E6 verdict: %s — beta wins at low c2/c1, gamma at high, single crossover (%d)\n",
              verdict(shape_ok), crossovers);
  return shape_ok;
}
