// E11 — the §7 generalized model, answered experimentally.
//
// The paper's closing question: do the results generalize to (1) a delivery
// window [d1, d2] and (2) per-process step laws? This harness says yes, and
// shows the two novel effects the generalization introduces:
//   (a) a known minimum delay d1 SHRINKS the idle phase (separation only
//       needs d2 − d1), so β's measured effort falls as d1 grows — while the
//       batch adversary weakens in lockstep, keeping the construction within
//       a constant factor of the generalized lower bound;
//   (b) per-process laws split the bounds' dependencies: β's effort follows
//       the TRANSMITTER's law only (the receiver can be arbitrarily slow —
//       it's r-passive), while γ also pays the RECEIVER's c2 on the ack
//       path (including ack queueing when r_c2 > t_c2).
#include <sstream>

#include "paper_claims.h"
#include "rstp/general/run.h"

bool rstp::bench::e11_general() {
  using general::GeneralEnvironment;
  using general::GeneralTimingParams;
  using protocols::ProtocolKind;

  bool all_ok = true;

  print_header("E11a: minimum delay d1 shrinks beta's idle phase (t=r=[1,2], d2=12, k=8)");
  std::printf("%6s %6s %6s | %12s %12s %12s %8s\n", "d1", "wait", "adv_d", "beta_meas",
              "beta_upper", "passive_low", "check");
  print_rule(76);
  double prev = 1e300;
  for (const std::int64_t d1 : {0, 3, 6, 9, 11, 12}) {
    GeneralTimingParams g{Duration{1}, Duration{2}, Duration{1},
                          Duration{2}, Duration{d1}, Duration{12}};
    const auto bounds = general::compute_general_bounds(g, 8);
    const auto m = general::measure_general_effort(ProtocolKind::Beta, g, 8,
                                                   bounds.beta_bits_per_block * 48,
                                                   GeneralEnvironment::worst_case());
    const bool ok = m.output_correct && m.effort <= bounds.beta_upper * (1 + 1e-9) &&
                    m.effort <= prev + 1e-9;
    all_ok = all_ok && ok;
    prev = m.effort;
    std::printf("%6lld %6lld %6lld | %12.4f %12.4f %12.4f %8s\n", static_cast<long long>(d1),
                static_cast<long long>(bounds.beta_wait),
                static_cast<long long>(bounds.adversary_delta), m.effort, bounds.beta_upper,
                bounds.passive_lower, verdict(ok));
  }
  print_rule(76);

  print_header("E11b: beta ignores the receiver's law; gamma pays it (t=[1,2], d=[0,12], k=8)");
  std::printf("%6s %6s | %12s %12s | %12s %12s %8s\n", "r_c1", "r_c2", "beta_meas", "gamma_meas",
              "gamma_upper", "active_low", "check");
  print_rule(80);
  double beta_baseline = -1;
  for (const std::int64_t r_c2 : {2, 4, 8, 12}) {
    GeneralTimingParams g{Duration{1}, Duration{2},         Duration{1},
                          Duration{r_c2}, Duration{0}, Duration{12}};
    const auto bounds = general::compute_general_bounds(g, 8);
    const auto beta = general::measure_general_effort(ProtocolKind::Beta, g, 8,
                                                      bounds.beta_bits_per_block * 48,
                                                      GeneralEnvironment::worst_case());
    const auto gamma = general::measure_general_effort(ProtocolKind::Gamma, g, 8,
                                                       bounds.gamma_bits_per_block * 48,
                                                       GeneralEnvironment::worst_case());
    if (beta_baseline < 0) beta_baseline = beta.effort;
    const bool ok = beta.output_correct && gamma.output_correct &&
                    std::abs(beta.effort - beta_baseline) < 1e-9 &&  // r-passive: r-law-free
                    gamma.effort <= bounds.gamma_upper * (1 + 1e-9);
    all_ok = all_ok && ok;
    std::printf("%6lld %6lld | %12.4f %12.4f | %12.4f %12.4f %8s\n", 1LL,
                static_cast<long long>(r_c2), beta.effort, gamma.effort, bounds.gamma_upper,
                bounds.active_lower, verdict(ok));
  }
  print_rule(80);

  print_header("E11c: asymmetric grid — all protocols correct, efforts within bounds");
  std::printf("%-26s | %10s %10s %10s %10s %8s\n", "model", "alpha", "beta", "gamma", "altbit",
              "check");
  print_rule(84);
  const GeneralTimingParams grid[] = {
      {Duration{1}, Duration{1}, Duration{1}, Duration{1}, Duration{0}, Duration{6}},
      {Duration{1}, Duration{2}, Duration{3}, Duration{5}, Duration{0}, Duration{10}},
      {Duration{2}, Duration{5}, Duration{1}, Duration{2}, Duration{4}, Duration{10}},
      {Duration{1}, Duration{3}, Duration{1}, Duration{3}, Duration{7}, Duration{9}},
      {Duration{3}, Duration{4}, Duration{2}, Duration{6}, Duration{2}, Duration{12}},
  };
  for (const auto& g : grid) {
    double efforts[4] = {0, 0, 0, 0};
    bool ok = true;
    const ProtocolKind kinds[] = {ProtocolKind::Alpha, ProtocolKind::Beta, ProtocolKind::Gamma,
                                  ProtocolKind::AltBit};
    for (int i = 0; i < 4; ++i) {
      const auto m = general::measure_general_effort(kinds[i], g, 8, 120,
                                                     GeneralEnvironment::worst_case());
      efforts[i] = m.effort;
      ok = ok && m.output_correct && m.quiescent;
    }
    all_ok = all_ok && ok;
    std::ostringstream name;
    name << g;
    std::printf("%-26s | %10.3f %10.3f %10.3f %10.3f %8s\n", name.str().c_str(), efforts[0],
                efforts[1], efforts[2], efforts[3], verdict(ok));
  }
  print_rule(84);

  std::printf("E11 verdict: %s — the paper's results carry to the section-7 generalization\n",
              verdict(all_ok));
  return all_ok;
}
