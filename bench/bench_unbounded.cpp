// E13 — why the bounds depend on k: the unbounded-alphabet escape hatch.
//
// Theorem 5.3 lower-bounds every fixed-k r-passive solution by
// δ1·c2/log2 ζ_k(δ1), which for fixed k grows like d/log d. Indexed
// streaming ([Ste76]-style sequence numbers, alphabet 2·|X|) holds effort at
// exactly c2 regardless of d. The table sweeps d and prints both: the
// crossing demonstrates the k-dependence is not an artifact of the proofs —
// any attempt to remove it is refuted by this protocol.
//
// The second table shows the flip side: at fixed d, the Theorem rewards
// larger alphabets, and for k comparable to 2^δ1 the fixed-k bound itself
// dips under c2 — alphabet size is exactly the currency the model trades
// time against.
#include "paper_claims.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"
#include "rstp/protocols/factory.h"

bool rstp::bench::e13_unbounded() {
  using core::Environment;
  using protocols::ProtocolKind;

  bool all_ok = true;
  const std::size_t n = 256;

  print_header("E13a: indexed streaming (|P| = 2|X|) vs fixed-k lower bounds, c1=1 c2=2");
  std::printf("%6s | %12s | %12s %12s %12s | %8s\n", "d", "indexed", "low(k=2)", "low(k=4)",
              "low(k=16)", "check");
  print_rule(76);
  for (const std::int64_t d : {4, 8, 16, 32, 64, 128}) {
    const auto params = core::TimingParams::make(1, 2, d);
    protocols::ProtocolConfig cfg;
    cfg.params = params;
    cfg.k = static_cast<std::uint32_t>(2 * n);
    cfg.input = core::make_random_input(n, static_cast<std::uint64_t>(d));
    const core::ProtocolRun run =
        core::run_protocol(ProtocolKind::Indexed, cfg, Environment::worst_case());
    const double effort = core::effort_of(run, n).effort;
    const double low2 = core::compute_bounds(params, 2).passive_lower;
    const double low4 = core::compute_bounds(params, 4).passive_lower;
    const double low16 = core::compute_bounds(params, 16).passive_lower;
    // Indexed stays ~c2; each fixed-k bound overtakes it as d grows.
    const bool ok = run.output_correct && effort <= 2.0 + 1e-9;
    all_ok = all_ok && ok;
    std::printf("%6lld | %12.4f | %12.4f %12.4f %12.4f | %8s\n", static_cast<long long>(d),
                effort, low2, low4, low16, verdict(ok));
  }
  print_rule(76);

  print_header("E13b: at fixed d=64, the bound itself rewards alphabet size");
  std::printf("%8s | %14s %14s\n", "k", "passive_lower", "beta_upper");
  print_rule(44);
  const auto params = core::TimingParams::make(1, 2, 64);
  for (const std::uint32_t k : {2u, 8u, 32u, 128u, 512u, 2048u}) {
    const core::BoundsReport bounds = core::compute_bounds(params, k);
    std::printf("%8u | %14.4f %14.4f\n", k, bounds.passive_lower, bounds.beta_upper);
  }
  print_rule(44);
  std::printf("E13 verdict: %s — effort(indexed) = c2 independent of d; fixed-k bounds grow "
              "like d/log d\n",
              verdict(all_ok));
  return all_ok;
}
