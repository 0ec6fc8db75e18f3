// Shared machinery for the repo's generational search engines — the
// coverage-guided fuzzer (sim/fuzz.h) and the adversary synthesizer
// (sim/adversary.h). Both hunt the same way: plan a batch deterministically,
// evaluate its slots in parallel, fold the results serially, repeat. What
// they *score* differs (crash/violation novelty vs. protocol effort), so the
// reusable parts live here:
//
//   * FNV-1a mixing and the event fingerprint: a 64-bit digest of "where the
//     protocol is" after one applied event. It deliberately excludes raw
//     times and sequence numbers (every case would be all-new coverage) and
//     includes the action shape, the protocol automata's own counters, and
//     the output length — state the paper's proofs quantify over.
//   * CoverageObserver: the SimObserver that collects one run's distinct
//     event fingerprints.
//   * parallel_for_slots: the repo's one worker pool, shared by the campaign
//     engine, the multiplexed sessions and both search engines. Workers
//     claim indices from an atomic cursor and write disjoint slots; the
//     caller folds serially afterwards, so results are independent of the
//     worker count. The first worker exception is rethrown on the caller's
//     thread.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "rstp/ioa/trace.h"
#include "rstp/protocols/base.h"
#include "rstp/sim/observer.h"

namespace rstp::sim {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

[[nodiscard]] constexpr std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * kFnvPrime;
}

/// Coverage fingerprint of one applied event given the two protocol
/// automata's current counter state (see the header comment).
[[nodiscard]] std::uint64_t event_fingerprint(const ioa::TimedEvent& e,
                                              const protocols::TransmitterBase& t,
                                              const protocols::ReceiverBase& r);

/// Collects the distinct event fingerprints of one run of the pair (t, r).
class CoverageObserver final : public SimObserver {
 public:
  CoverageObserver(const protocols::TransmitterBase& t, const protocols::ReceiverBase& r)
      : t_(t), r_(r) {}

  void on_event(const ioa::TimedEvent& event) override {
    seen_.insert(event_fingerprint(event, t_, r_));
  }

  /// The distinct fingerprints seen so far, ascending.
  [[nodiscard]] std::vector<std::uint64_t> sorted_fingerprints() const;

 private:
  const protocols::TransmitterBase& t_;
  const protocols::ReceiverBase& r_;
  std::unordered_set<std::uint64_t> seen_;
};

/// FNV-1a over a bit sequence (output hashing).
[[nodiscard]] std::uint64_t hash_bits(const std::vector<ioa::Bit>& bits);

/// FNV-1a fold of an already-sorted value sequence (order-independent
/// coverage hashing: sort first, then fold).
[[nodiscard]] std::uint64_t hash_sorted(const std::vector<std::uint64_t>& values);

/// Runs fn(0..n-1) across up to `jobs` worker threads (0 = hardware
/// concurrency). fn must write only to its own slot `i`.
void parallel_for_slots(std::size_t n, unsigned jobs,
                        const std::function<void(std::size_t)>& fn);

}  // namespace rstp::sim
