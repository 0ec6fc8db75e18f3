// E16 — the pipelined-gamma extension: buying pipelining with alphabet.
//
// A^γw keeps two parity-tagged blocks in flight, halving the per-block round
// trip but also halving the symbol alphabet (one payload bit pays for the
// tag). The theory says it wins iff 2·⌊log2 μ_{k/2}(δ2)⌋ > ⌊log2 μ_k(δ2)⌋ —
// which holds once k is rich relative to δ2 and fails for poor alphabets
// (at k=4 the halved alphabet is binary and B' collapses). This harness
// measures both protocols across k and prints the predicted and observed
// winner; the crossover must land where the bit-counting says.
#include <string>

#include "paper_claims.h"
#include "rstp/combinatorics/binomial.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"
#include "rstp/protocols/gamma_windowed.h"

bool rstp::bench::e16_windowed() {
  using core::Environment;
  using protocols::ProtocolKind;

  bool all_ok = true;
  for (const std::int64_t d : {8, 32}) {
    const auto params = core::TimingParams::make(1, 2, d);
    const auto delta2 = static_cast<std::uint32_t>(params.delta2());
    print_header("E16: windowed vs plain gamma, c1=1 c2=2 d=%lld (delta2=%u)",
                 static_cast<long long>(d), delta2);
    std::printf("%6s | %5s %5s | %12s %12s | %9s %9s %8s\n", "k", "B_k", "2B'", "gamma",
                "windowed", "predicted", "observed", "check");
    print_rule(84);
    for (const std::uint32_t k : {4u, 8u, 16u, 32u, 64u}) {
      const std::size_t B = combinatorics::floor_log2_mu(k, delta2);
      const std::size_t B2 = 2 * combinatorics::floor_log2_mu(k / 2, delta2);
      const std::size_t n = 48 * B * B2 / std::max<std::size_t>(1, std::min(B, B2));
      const auto gamma =
          core::measure_effort(ProtocolKind::Gamma, params, k, n, Environment::worst_case());
      const auto windowed = core::measure_effort(ProtocolKind::WindowedGamma, params, k, n,
                                                 Environment::worst_case());
      const bool correct = gamma.output_correct && windowed.output_correct;
      const bool predicted_windowed_wins = B2 > B;
      const bool observed_windowed_wins = windowed.effort < gamma.effort;
      // The bit-count prediction is exact at the margins we sweep; require
      // agreement except within 5% (a genuine tie region).
      const bool near_tie =
          std::abs(windowed.effort - gamma.effort) < 0.05 * gamma.effort;
      const bool ok =
          correct && (near_tie || predicted_windowed_wins == observed_windowed_wins);
      all_ok = all_ok && ok;
      std::printf("%6u | %5zu %5zu | %12.4f %12.4f | %9s %9s %8s\n", k, B, B2, gamma.effort,
                  windowed.effort, predicted_windowed_wins ? "windowed" : "gamma",
                  observed_windowed_wins ? "windowed" : "gamma", verdict(ok));
    }
    print_rule(84);
  }
  {
    // Window sweep at rich alphabet: W=1 reproduces plain gamma's rhythm;
    // growing W hides more of the round trip until the pipeline becomes
    // send-limited; far beyond that, the shrinking per-tag alphabet wins
    // back and effort rises again.
    const auto params = core::TimingParams::make(1, 2, 32);
    const std::uint32_t k = 64;
    const auto delta2 = static_cast<std::uint32_t>(params.delta2());
    print_header("E16b: window sweep, k=64, c1=1 c2=2 d=32 (delta2=16)");
    std::printf("%4s %6s %5s | %12s %12s %8s\n", "W", "k/W", "B'", "measured", "predicted",
                "check");
    print_rule(56);
    double w1_effort = 0;
    double best = 1e300;
    for (const std::uint32_t w : {1u, 2u, 4u, 8u, 16u}) {
      const double bound = protocols::windowed_gamma_upper(params, k, w);
      const std::size_t Bp = combinatorics::floor_log2_mu(k / w, delta2);
      protocols::ProtocolConfig cfg;
      cfg.params = params;
      cfg.k = k;
      cfg.window_override = w;
      cfg.input = core::make_random_input(Bp * w * ((160 / w) + 1), w);
      const core::ProtocolRun run = core::run_protocol(ProtocolKind::WindowedGamma, cfg,
                                                       Environment::worst_case(),
                                                       /*record_trace=*/false);
      const double effort = core::effort_of(run, cfg.input.size()).effort;
      const bool ok = run.output_correct && effort <= bound * (1 + 1e-9);
      all_ok = all_ok && ok;
      if (w == 1) w1_effort = effort;
      best = std::min(best, effort);
      std::printf("%4u %6u %5zu | %12.4f %12.4f %8s\n", w, k / w, Bp, effort, bound,
                  verdict(ok));
    }
    print_rule(56);
    all_ok = all_ok && best < w1_effort;  // some window beats stop-and-wait
  }

  std::printf("E16 verdict: %s — pipelining wins exactly where W*B_{k/W} > B_k; the window "
              "sweep shows the RTT being hidden and the alphabet cost taking over\n",
              verdict(all_ok));
  return all_ok;
}
