// E17 — the price of self-tuning: estimator effort vs the oracle.
//
// The paper's protocols receive (c1, c2, d) as givens; the est layer
// discovers them online (RFC 6298-style EWMA brackets) and re-plans block
// sizes at block boundaries. This harness measures est_penalty =
// effort_est / effort_oracle across environments and safety margins, then
// across scripted drift:
//   * worst-case stationary channels at margin 0: within 5% of the oracle
//     (the golden-grid acceptance bar) — often *below* 1, because the
//     estimator tunes to the realized channel where the oracle plans for
//     the declared worst case;
//   * growing margins buy drift headroom with bounded extra effort;
//   * drifting channels stay correct and re-converge after breakpoints,
//     with the penalty bounded by a loose 2x sanity ceiling.
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "rstp/core/drift.h"
#include "rstp/core/effort.h"
#include "rstp/est/runner.h"

int main() {
  using namespace rstp;
  using core::Environment;
  using protocols::ProtocolKind;

  bool all_ok = true;
  const std::size_t n = 256;

  bench::print_header(
      "E17a: stationary est_penalty by margin (worst case, n=256; budget: margin 0 within 5%)");
  std::printf("%6s | %-12s | %6s | %10s | %-12s | %7s\n", "proto", "params", "margin",
              "penalty", "(c1,c2,d)-hat", "resizes");
  bench::print_rule(72);
  for (const auto kind : {ProtocolKind::Beta, ProtocolKind::Gamma}) {
    for (const auto& params :
         {core::TimingParams::make(1, 2, 6), core::TimingParams::make(2, 3, 9)}) {
      for (const double margin : {0.0, 0.125, 0.25}) {
        protocols::ProtocolConfig cfg;
        cfg.params = params;
        cfg.k = 4;
        cfg.input = core::make_random_input(n, 1);
        est::EstimatorConfig est_cfg;
        est_cfg.margin = margin;
        const est::PenaltyRun pair = est::run_penalty_pair(
            kind, cfg, Environment::worst_case(), core::DriftSpec{}, est_cfg);
        const obs::EstimatorGauges& g = pair.estimated.gauges;
        const bool correct =
            pair.estimated.run.output_correct && pair.estimated.run.result.quiescent;
        const bool within = margin > 0.0 || pair.est_penalty <= 1.05;
        all_ok = all_ok && correct && within;
        char hats[32];
        std::snprintf(hats, sizeof hats, "(%lld,%lld,%lld)", static_cast<long long>(g.c1_hat),
                      static_cast<long long>(g.c2_hat), static_cast<long long>(g.d_hat));
        char pbuf[24];
        std::snprintf(pbuf, sizeof pbuf, "%d,%d,%d", static_cast<int>(params.c1.ticks()),
                      static_cast<int>(params.c2.ticks()), static_cast<int>(params.d.ticks()));
        std::printf("%6s | %-12s | %6.3f | %10.4f | %-12s | %7llu  %s\n",
                    std::string(protocols::to_string(kind)).c_str(), pbuf, margin,
                    pair.est_penalty, hats, static_cast<unsigned long long>(g.resizes),
                    bench::verdict(correct && within));
      }
    }
  }

  bench::print_header(
      "E17b: drifting channels (d drifts 9->4->7 clamped to the envelope; sanity ceiling 2x)");
  std::printf("%6s | %-12s | %10s | %-12s | %7s\n", "proto", "params", "penalty",
              "(c1,c2,d)-hat", "resizes");
  bench::print_rule(60);
  const core::DriftSpec drift = core::DriftSpec::parse("0:9,250:4,600:7");
  for (const auto kind : {ProtocolKind::Beta, ProtocolKind::Gamma}) {
    for (const auto& params :
         {core::TimingParams::make(1, 2, 6), core::TimingParams::make(2, 3, 9)}) {
      protocols::ProtocolConfig cfg;
      cfg.params = params;
      cfg.k = 4;
      cfg.input = core::make_random_input(n, 1);
      est::EstimatorConfig est_cfg;
      est_cfg.margin = 0.0;
      const est::PenaltyRun pair =
          est::run_penalty_pair(kind, cfg, Environment::worst_case(), drift, est_cfg);
      const obs::EstimatorGauges& g = pair.estimated.gauges;
      const bool correct =
          pair.estimated.run.output_correct && pair.estimated.run.result.quiescent;
      const bool legal = g.c1_hat >= 1 && g.c1_hat <= g.c2_hat && g.c2_hat <= g.d_hat;
      const bool bounded = pair.est_penalty > 0 && pair.est_penalty <= 2.0;
      all_ok = all_ok && correct && legal && bounded;
      char hats[32];
      std::snprintf(hats, sizeof hats, "(%lld,%lld,%lld)", static_cast<long long>(g.c1_hat),
                    static_cast<long long>(g.c2_hat), static_cast<long long>(g.d_hat));
      char pbuf[24];
      std::snprintf(pbuf, sizeof pbuf, "%d,%d,%d", static_cast<int>(params.c1.ticks()),
                    static_cast<int>(params.c2.ticks()), static_cast<int>(params.d.ticks()));
      std::printf("%6s | %-12s | %10.4f | %-12s | %7llu  %s\n",
                  std::string(protocols::to_string(kind)).c_str(), pbuf, pair.est_penalty, hats,
                  static_cast<unsigned long long>(g.resizes),
                  bench::verdict(correct && legal && bounded));
    }
  }

  std::printf("\nE17 verdict: %s — self-tuning costs at most 5%% on stationary worst-case "
              "channels and stays correct (and legal) under drift\n",
              bench::verdict(all_ok));
  return all_ok ? 0 : 1;
}
