// The model's timing parameters (paper §1, §4) and the derived step counts.
//
// Three constants govern every good execution:
//   c1 — minimum gap between consecutive local steps of a process
//   c2 — maximum gap between consecutive local steps of a process
//   d  — maximum channel delay
// with 0 < c1 ≤ c2 ≤ d. The paper's derived quantities:
//   δ1 = d/c1 — the most steps a process can take in d time units
//   δ2 = d/c2 — the fewest steps a process must take in d time units
//
// Discretization: the paper implicitly assumes c1 | d and c2 | d. Over
// integer ticks we expose the floor values (used by the counting bounds) and
// the ceiling δ1 (used by protocols to size idle periods so that δ1_wait
// steps always span ≥ d time even at the fastest rate c1). When c | d all
// variants coincide with the paper's d/c.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "rstp/common/time.h"

namespace rstp::core {

struct TimingParams {
  Duration c1{1};  ///< min step gap
  Duration c2{1};  ///< max step gap
  Duration d{1};   ///< max channel delay

  /// The largest ⌈d/c1⌉ the model takes: every δ sizes a block of packets
  /// and the multiset codec's lengths, which are 32-bit.
  static constexpr std::int64_t kMaxSteps = 0xFFFF'FFFF;

  /// Validates 0 < c1 <= c2 <= d and ⌈d/c1⌉ <= kMaxSteps (so δ1, δ1_wait
  /// and δ2 all fit in 32 bits); throws rstp::ContractViolation otherwise.
  void validate() const;

  /// δ1 = ⌊d/c1⌋: max steps in d time (counting bound form).
  [[nodiscard]] std::int64_t delta1() const;

  /// ⌈d/c1⌉: idle steps that guarantee ≥ d elapsed even at the fastest rate;
  /// the β protocol's wait length (= δ1 when c1 | d).
  [[nodiscard]] std::int64_t delta1_wait() const;

  /// δ2 = ⌊d/c2⌋: min steps in d time (the active protocol's block size).
  [[nodiscard]] std::int64_t delta2() const;

  /// Convenience constructor with validation.
  [[nodiscard]] static TimingParams make(std::int64_t c1_ticks, std::int64_t c2_ticks,
                                         std::int64_t d_ticks);

  friend bool operator==(const TimingParams&, const TimingParams&) = default;
};

std::ostream& operator<<(std::ostream& os, const TimingParams& p);

}  // namespace rstp::core
