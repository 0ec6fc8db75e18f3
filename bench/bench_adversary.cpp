// E7 (Figure 2 / Lemmas 5.1, 5.4): the lower-bound adversary, executable.
//
// The proofs construct executions where the receiver observes only the
// MULTISET of packets per δ-step window: the adversary groups each window
// and delivers it as one canonically-ordered batch. This harness runs that
// adversary (channel::AdversarialBatchPolicy) against:
//   (a) A^β(k)  — decodes from multisets: must survive unscathed;
//   (b) the positional strawman — carries more bits/block but depends on
//       arrival order: must corrupt silently on generic inputs;
// and then lets the bounded-exhaustive explorer quantify the same fact over
// ALL admissible schedules for a small instance: β verifies, the strawman
// has a reachable corrupting schedule.
#include <string>

#include "paper_claims.h"
#include "rstp/core/effort.h"
#include "rstp/core/verify.h"

namespace {

using namespace rstp;
using core::Environment;
using protocols::ProtocolKind;

std::size_t hamming_errors(const std::vector<ioa::Bit>& got, const std::vector<ioa::Bit>& want) {
  // Length mismatch counts as errors, plus positionwise flips on the overlap.
  std::size_t errors =
      got.size() > want.size() ? got.size() - want.size() : want.size() - got.size();
  const std::size_t common = std::min(got.size(), want.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (got[i] != want[i]) ++errors;
  }
  return errors;
}

}  // namespace

bool rstp::bench::e7_adversary() {
  print_header("E7: the Lemma 5.1 batch adversary vs multiset and positional coding");
  std::printf("%10s %6s %6s | %10s %12s %10s\n", "protocol", "k", "n", "completed",
              "bit_errors", "verifier");
  print_rule(70);

  bool ok = true;
  for (const std::uint32_t k : {2u, 4u, 8u}) {
    const std::size_t n = 240;
    protocols::ProtocolConfig cfg;
    cfg.params = core::TimingParams::make(1, 1, 8);
    cfg.k = k;
    cfg.input = core::make_random_input(n, 1000 + k);

    for (const auto kind : {ProtocolKind::Beta, ProtocolKind::Strawman}) {
      const core::ProtocolRun run =
          core::run_protocol(kind, cfg, Environment::adversarial_fast());
      const std::size_t errors = hamming_errors(run.result.output, cfg.input);
      const auto verdict = core::verify_trace(run.result.trace, cfg.params, cfg.input);
      std::printf("%10s %6u %6zu | %10s %12zu %10s\n",
                  std::string(protocols::to_string(kind)).c_str(), k, n,
                  run.result.quiescent ? "yes" : "no", errors, verdict.ok() ? "accepts" : "rejects");
      if (kind == ProtocolKind::Beta) {
        ok = ok && run.output_correct && verdict.ok();
      } else {
        // The strawman must be corrupted on these generic random inputs.
        ok = ok && !run.output_correct;
      }
    }
  }
  print_rule(70);

  print_header("E7b: exhaustive check over ALL admissible schedules (c1=c2=1, d=2, 4 bits)");
  const std::vector<ioa::Bit> input = {0, 1, 0, 0};
  for (const auto kind : {ProtocolKind::Beta, ProtocolKind::Strawman}) {
    protocols::ProtocolConfig cfg;
    cfg.params = core::TimingParams::make(1, 1, 2);
    cfg.k = kind == ProtocolKind::Beta ? 3 : 2;
    cfg.input = input;
    const ioa::ExplorerResult r = core::explore_transfer(kind, cfg);
    std::printf("  %-9s states=%-8llu terminals=%-6llu safe=%-3s complete=%-3s\n",
                std::string(protocols::to_string(kind)).c_str(),
                static_cast<unsigned long long>(r.distinct_states),
                static_cast<unsigned long long>(r.terminal_states),
                r.safety_held ? "yes" : "NO", r.all_terminals_complete ? "yes" : "NO");
    if (kind == ProtocolKind::Beta) {
      ok = ok && r.verified();
    } else {
      ok = ok && !(r.safety_held && r.all_terminals_complete);
    }
  }

  std::printf("E7 verdict: %s — multiset coding survives the proof adversary; positional "
              "coding does not\n",
              verdict(ok));
  return ok;
}
