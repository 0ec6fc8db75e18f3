// The §7 generalized real-time model.
//
// The paper closes by proposing two generalizations and asking whether the
// results carry over:
//   (1) replace d by two constants d1 ≤ d2 bounding the delivery delay from
//       below and above;
//   (2) give each process its own (c1, c2) step law.
// This module implements both. The derivations (documented per-field in
// GeneralBoundsReport) show the results do generalize, with two interesting
// twists the paper's question invites:
//   * a known minimum delay d1 *helps the protocols*: block separation only
//     needs consecutive blocks' sends to be (d2 − d1) apart, not d2 — so
//     A^β's idle phase shrinks to ⌈(d2−d1)/c1^t⌉ steps and its effort drops;
//   * the same margin *hurts the lower-bound adversary*: the Lemma 5.1
//     batching window must fit in d2 − d1, so the passive lower bound's δ
//     becomes ⌊(d2−d1)/c1^t⌋ — the two effects move together, keeping the
//     construction within a constant factor of the bound.
// The base model is the special case d1 = 0, identical laws.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "rstp/core/params.h"

namespace rstp::general {

struct GeneralTimingParams {
  Duration t_c1{1};  ///< transmitter min step gap
  Duration t_c2{1};  ///< transmitter max step gap
  Duration r_c1{1};  ///< receiver min step gap
  Duration r_c2{1};  ///< receiver max step gap
  Duration d_lo{0};  ///< d1: minimum delivery delay
  Duration d_hi{1};  ///< d2: maximum delivery delay

  /// Requires 0 < c1 ≤ c2 per process, 0 ≤ d1 ≤ d2, each c2 ≤ d2
  /// (mirroring the base model's c2 ≤ d, which δ2 ≥ 1 needs), and
  /// ⌈d2/c1⌉ ≤ core::TimingParams::kMaxSteps for both c1.
  void validate() const;

  /// Embeds the base model: both processes get (c1, c2), window [0, d].
  [[nodiscard]] static GeneralTimingParams from_base(const core::TimingParams& base);

  /// True iff this is exactly a base-model instance.
  [[nodiscard]] bool is_base() const;

  /// Delivery-window width d2 − d1 (the quantity block separation cares about).
  [[nodiscard]] Duration window_width() const { return d_hi - d_lo; }

  // --- derived step counts (generalizing δ1, δ2) ---------------------------

  /// Max transmitter steps inside one max-delay span: ⌊d2/c1^t⌋.
  [[nodiscard]] std::int64_t delta1() const;
  /// β's block size: ⌈d2/c1^t⌉ (the paper's δ1 with ceil discretization).
  [[nodiscard]] std::int64_t beta_block() const;
  /// β's idle phase: ⌈(d2−d1)/c1^t⌉ steps guarantee block separation; at
  /// least 1 to keep the round structure well-formed.
  [[nodiscard]] std::int64_t beta_wait() const;
  /// Max transmitter steps the Lemma 5.1 adversary can batch: ⌊(d2−d1)/c1^t⌋
  /// (0 when d1 = d2 — a deterministic-latency channel admits no batching).
  [[nodiscard]] std::int64_t adversary_delta() const;
  /// γ's block size: ⌊d2/c2^t⌋.
  [[nodiscard]] std::int64_t delta2() const;

  // --- projections for the simulator / verifier ----------------------------

  /// Transmitter's (c1, c2) with d = d2, for gap validation.
  [[nodiscard]] core::TimingParams transmitter_params() const;
  /// Receiver's (c1, c2) with d = d2.
  [[nodiscard]] core::TimingParams receiver_params() const;
  /// Conservative uniform envelope: (min c1, max c2, d2). Any execution of
  /// the general model is also an execution of this base model.
  [[nodiscard]] core::TimingParams envelope() const;

  friend bool operator==(const GeneralTimingParams&, const GeneralTimingParams&) = default;
};

std::ostream& operator<<(std::ostream& os, const GeneralTimingParams& p);

/// Generalized closed-form bounds (the §7 answers).
struct GeneralBoundsReport {
  GeneralTimingParams params{};
  std::uint32_t k = 2;

  std::int64_t beta_block = 0;
  std::int64_t beta_wait = 0;
  std::int64_t adversary_delta = 0;
  std::int64_t delta2 = 0;

  std::size_t beta_bits_per_block = 0;
  std::size_t gamma_bits_per_block = 0;

  /// Generalized Thm 5.3: the batch adversary erases order inside windows of
  /// δ̂ = ⌊(d2−d1)/c1^t⌋ transmitter steps, each spanning ≤ δ̂·c2^t time:
  /// eff ≥ δ̂·c2^t / log2 ζ_k(δ̂). Zero (no bound from this argument) when
  /// d1 = d2.
  double passive_lower = 0;
  /// Generalized Thm 5.6: eff ≥ d2 / log2 ζ_k(δ2).
  double active_lower = 0;
  /// Generalized A^α: one message per ⌈(d2−d1)/c1^t⌉ steps (min-separation
  /// sends stay ordered), each ≤ c2^t: eff = max(1,⌈(d2−d1)/c1^t⌉)·c2^t.
  double alpha_effort = 0;
  /// Generalized Lemma 6.1: rounds of (block + wait) transmitter steps carry
  /// B bits: eff ≤ (block + wait)·c2^t / B.
  double beta_upper = 0;
  /// Generalized §6.2 with ack queueing. The paper's 3d + c2 assumes the
  /// receiver keeps pace with arrivals (it does when both run the same law:
  /// FIFO max-delay arrivals are ≥ c2 apart). With r_c2 > t_c2 arrivals can
  /// outpace the receiver and acks queue; the i-th ack leaves by
  /// a_i + (δ2−i+1)·r_c2 with a_i ≤ (i−1)·t_c2 + d2, so the block period is
  /// ≤ 2d2 + max(δ2·r_c2, (δ2−1)·t_c2 + r_c2) + t_c2 — which is ≤ the
  /// paper's 3d2 + c2 form in the base model (δ2·c2 ≤ d2).
  double gamma_upper = 0;
};

[[nodiscard]] GeneralBoundsReport compute_general_bounds(const GeneralTimingParams& params,
                                                         std::uint32_t k);

std::ostream& operator<<(std::ostream& os, const GeneralBoundsReport& r);

}  // namespace rstp::general
