// E8 ([BSW69] baseline): stop-and-wait / alternating-bit vs the paper's
// block protocols.
//
// Stop-and-wait moves one bit per round trip (~2d + 2c2); A^γ(k) moves
// B = ⌊log2 μ_k(δ2)⌋ bits per ~3d + c2. The win factor should therefore be
// roughly 2B/3, growing with both k and d. A^β(k) is also shown for
// completeness. Expected shape: altbit flat (independent of k), the block
// protocols dropping as k grows, win factors in the predicted band.
#include "paper_claims.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"

bool rstp::bench::e8_altbit_baseline() {
  using core::Environment;
  using protocols::ProtocolKind;

  bool all_ok = true;
  for (const std::int64_t d : {8, 32}) {
    const auto params = core::TimingParams::make(1, 2, d);
    print_header("E8: stop-and-wait vs block protocols, c1=1 c2=2 d=%lld",
                 static_cast<long long>(d));
    std::printf("%6s %6s | %12s %12s %12s | %12s %12s\n", "k", "B_gam", "altbit", "gamma", "beta",
                "win(g vs a)", "pred 2B/3");
    print_rule(88);
    for (const std::uint32_t k : {2u, 4u, 8u, 16u, 32u}) {
      const core::BoundsReport bounds = core::compute_bounds(params, k);
      const std::size_t n_blocks = 48;
      const auto alt = core::measure_effort(ProtocolKind::AltBit, params, 4, 256,
                                            Environment::worst_case());
      const auto gamma = core::measure_effort(ProtocolKind::Gamma, params, k,
                                              bounds.gamma_bits_per_block * n_blocks,
                                              Environment::worst_case());
      const auto beta = core::measure_effort(ProtocolKind::Beta, params, k,
                                             bounds.beta_bits_per_block * n_blocks,
                                             Environment::worst_case());
      const double win = alt.effort / gamma.effort;
      const double predicted = 2.0 * static_cast<double>(bounds.gamma_bits_per_block) / 3.0;
      const bool ok = alt.output_correct && gamma.output_correct && beta.output_correct &&
                      gamma.effort < alt.effort && win > predicted / 3.0 && win < predicted * 3.0;
      all_ok = all_ok && ok;
      std::printf("%6u %6zu | %12.4f %12.4f %12.4f | %12.2f %12.2f %s\n", k,
                  bounds.gamma_bits_per_block, alt.effort, gamma.effort, beta.effort, win,
                  predicted, verdict(ok));
    }
    print_rule(88);
  }
  std::printf("E8 verdict: %s — block protocols beat stop-and-wait by ~2B/3, growing with k,d\n",
              verdict(all_ok));
  return all_ok;
}
