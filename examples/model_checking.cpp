// Model checking: exhaustively verify a protocol over EVERY admissible
// schedule for a small instance, and extract a concrete counterexample when
// verification fails.
//
// The simulator shows one execution; the explorer shows all of them (for
// c1 = c2 = 1 and small d). This example verifies A^β(3) on a 4-bit input,
// then does the same for the order-sensitive strawman and prints the exact
// interleaving that corrupts it — a trace you can hand to the verifier,
// which confirms the schedule was legal and the output wrong.
#include <iostream>

#include "rstp/core/effort.h"
#include "rstp/core/verify.h"
#include "rstp/ioa/explorer.h"
#include "rstp/ioa/trace_io.h"
#include "rstp/protocols/factory.h"

namespace {

using namespace rstp;
using protocols::ProtocolKind;

ioa::ExplorerResult check(ProtocolKind kind, const std::vector<ioa::Bit>& input, std::uint32_t k,
                          std::int64_t d) {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 1, d);
  cfg.k = k;
  cfg.input = input;
  return core::explore_transfer(kind, cfg);
}

}  // namespace

int main() {
  const std::vector<ioa::Bit> input = {0, 1, 0, 0};
  std::cout << "instance: X = 0100, c1 = c2 = 1, d = 2\n\n";

  for (const auto kind : {ProtocolKind::Beta, ProtocolKind::Strawman}) {
    const std::uint32_t k = kind == ProtocolKind::Beta ? 3 : 2;
    const ioa::ExplorerResult result = check(kind, input, k, 2);
    std::cout << protocols::to_string(kind) << ": explored " << result.distinct_states
              << " states, " << result.transitions << " transitions, "
              << result.terminal_states << " terminals — "
              << (result.verified() ? "VERIFIED over all schedules" : "VIOLATION FOUND") << '\n';

    if (!result.verified() && !result.counterexample.empty()) {
      std::cout << "\ncounterexample execution:\n";
      ioa::write_trace(std::cout, result.counterexample);

      protocols::ProtocolConfig cfg;
      cfg.params = core::TimingParams::make(1, 1, 2);
      const core::VerifyResult verdict =
          core::verify_trace(result.counterexample, cfg.params, input,
                             {.require_complete = false, .require_drained = false});
      std::cout << "\nindependent verifier's reading of the counterexample:\n" << verdict
                << "\n(note: timing and channel conduct are admissible — the defect is the "
                   "protocol's order-sensitive encoding)\n\n";
    }
  }
  return 0;
}
