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
#include <string>

#include "paper_claims.h"
#include "rstp/core/drift.h"
#include "rstp/core/effort.h"
#include "rstp/est/runner.h"

namespace {

using namespace rstp;

/// One estimated-vs-oracle pair (k = 4, 256 random bits, worst-case
/// environment) and its params and (c1,c2,d)-hat cells.
struct PenaltyRow {
  est::PenaltyRun pair;
  bool correct = false;
  char params[24] = {};
  char hats[32] = {};
};

PenaltyRow penalty_row(protocols::ProtocolKind kind, const core::TimingParams& params,
                       const core::DriftSpec& drift, double margin) {
  protocols::ProtocolConfig cfg;
  cfg.params = params;
  cfg.k = 4;
  cfg.input = core::make_random_input(256, 1);
  est::EstimatorConfig est_cfg;
  est_cfg.margin = margin;
  PenaltyRow row{
      est::run_penalty_pair(kind, cfg, core::Environment::worst_case(), drift, est_cfg)};
  const obs::EstimatorGauges& g = row.pair.estimated.gauges;
  row.correct = row.pair.estimated.run.output_correct && row.pair.estimated.run.result.quiescent;
  std::snprintf(row.params, sizeof row.params, "%d,%d,%d", static_cast<int>(params.c1.ticks()),
                static_cast<int>(params.c2.ticks()), static_cast<int>(params.d.ticks()));
  std::snprintf(row.hats, sizeof row.hats, "(%lld,%lld,%lld)", static_cast<long long>(g.c1_hat),
                static_cast<long long>(g.c2_hat), static_cast<long long>(g.d_hat));
  return row;
}

}  // namespace

bool rstp::bench::e17_estimator() {
  using protocols::ProtocolKind;

  bool all_ok = true;
  print_header(
      "E17a: stationary est_penalty by margin (worst case, n=256; budget: margin 0 within 5%%)");
  std::printf("%6s | %-12s | %6s | %10s | %-12s | %7s\n", "proto", "params", "margin",
              "penalty", "(c1,c2,d)-hat", "resizes");
  print_rule(72);
  for (const auto kind : {ProtocolKind::Beta, ProtocolKind::Gamma}) {
    for (const auto& params :
         {core::TimingParams::make(1, 2, 6), core::TimingParams::make(2, 3, 9)}) {
      for (const double margin : {0.0, 0.125, 0.25}) {
        const PenaltyRow row = penalty_row(kind, params, core::DriftSpec{}, margin);
        const bool within = margin > 0.0 || row.pair.est_penalty <= 1.05;
        all_ok = all_ok && row.correct && within;
        std::printf("%6s | %-12s | %6.3f | %10.4f | %-12s | %7llu  %s\n",
                    std::string(protocols::to_string(kind)).c_str(), row.params, margin,
                    row.pair.est_penalty, row.hats,
                    static_cast<unsigned long long>(row.pair.estimated.gauges.resizes),
                    verdict(row.correct && within));
      }
    }
  }

  print_header(
      "E17b: drifting channels (d drifts 9->4->7 clamped to the envelope; sanity ceiling 2x)");
  std::printf("%6s | %-12s | %10s | %-12s | %7s\n", "proto", "params", "penalty",
              "(c1,c2,d)-hat", "resizes");
  print_rule(60);
  const core::DriftSpec drift = core::DriftSpec::parse("0:9,250:4,600:7");
  for (const auto kind : {ProtocolKind::Beta, ProtocolKind::Gamma}) {
    for (const auto& params :
         {core::TimingParams::make(1, 2, 6), core::TimingParams::make(2, 3, 9)}) {
      const PenaltyRow row = penalty_row(kind, params, drift, 0.0);
      const obs::EstimatorGauges& g = row.pair.estimated.gauges;
      const bool legal = g.c1_hat >= 1 && g.c1_hat <= g.c2_hat && g.c2_hat <= g.d_hat;
      const bool bounded = row.pair.est_penalty > 0 && row.pair.est_penalty <= 2.0;
      all_ok = all_ok && row.correct && legal && bounded;
      std::printf("%6s | %-12s | %10.4f | %-12s | %7llu  %s\n",
                  std::string(protocols::to_string(kind)).c_str(), row.params,
                  row.pair.est_penalty, row.hats, static_cast<unsigned long long>(g.resizes),
                  verdict(row.correct && legal && bounded));
    }
  }

  std::printf("\nE17 verdict: %s — self-tuning costs at most 5%% on stationary worst-case "
              "channels and stays correct (and legal) under drift\n",
              verdict(all_ok));
  return all_ok;
}
