#include "rstp/core/distinguisher.h"

#include <cmath>

#include "rstp/combinatorics/binomial.h"
#include "rstp/common/check.h"

namespace rstp::core {

TransmitterSignature transmitter_signature(const protocols::TransmitterBase& transmitter,
                                           std::uint32_t k, std::int64_t window_steps,
                                           std::uint64_t max_steps) {
  RSTP_CHECK_GE(k, 1u, "alphabet must be non-empty");
  RSTP_CHECK_GE(window_steps, 1, "window must span at least one step");

  const std::unique_ptr<ioa::Automaton> clone = transmitter.clone();
  TransmitterSignature sig;

  std::uint64_t step = 0;
  while (step < max_steps) {
    ioa::LocalStep taken;
    if (!clone->step(taken)) {
      sig.complete = true;  // stopped: a fair finite execution
      break;
    }
    ++step;
    const ioa::Action& action = taken.action;
    if (action.kind == ioa::ActionKind::Send) {
      RSTP_CHECK_LT(action.packet.payload, k, "send outside the declared alphabet");
      const auto window = static_cast<std::size_t>(
          (static_cast<std::int64_t>(step) - 1) / window_steps);
      while (sig.windows.size() <= window) {
        sig.windows.emplace_back(k);
      }
      sig.windows[window].add(action.packet.payload);
      ++sig.total_sends;
      sig.last_send_step = step;
    }
  }
  // ℓ(X): trim trailing windows with no sends.
  const std::size_t used =
      sig.last_send_step == 0
          ? 0
          : (sig.last_send_step + static_cast<std::size_t>(window_steps) - 1) /
                static_cast<std::size_t>(window_steps);
  sig.windows.resize(used, combinatorics::Multiset{k});
  return sig;
}

std::size_t min_windows_for(std::size_t n, std::uint32_t k, std::uint32_t delta1) {
  if (n == 0) return 0;
  // Each window carries one of at most ζ_k(δ1) non-empty multisets or is
  // empty: (ζ_k(δ1) + 1)^ℓ ≥ 2^n  ⇒  ℓ ≥ n / log2(ζ_k(δ1) + 1).
  const double bits_per_window =
      (combinatorics::zeta(k, delta1) + bigint::BigUint{1}).log2();
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(n) / bits_per_window - 1e-9));
}

}  // namespace rstp::core
