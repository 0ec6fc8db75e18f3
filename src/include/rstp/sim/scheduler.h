// Step schedulers: the Σ(A_t, A_r) timing nondeterminism.
//
// Σ(A_t, A_r) (paper §4) admits any execution in which the gap between a
// process's consecutive local events lies in [c1, c2]. A StepScheduler is
// one resolution of that nondeterminism: it emits the first step offset and
// each subsequent gap. The simulator validates every returned value against
// the TimingParams, so a buggy or malicious scheduler is caught as a
// ModelError instead of silently producing executions outside good(A).
//
// Provided schedulers:
//   * FixedRateScheduler(g)  — steps every g (g = c1: the proofs' "fast"
//     executions; g = c2: the worst-case executions effort is measured on).
//   * SeededRandomScheduler  — gap uniform in [c1, c2] per step.
//   * SawtoothScheduler      — alternates c1, c2 (maximum jitter).
//   * DriftScheduler         — long runs of c1 then long runs of c2
//     (clock-drift-style variation between the extremes).
//   * DriftingSpecScheduler  — step gap follows a core::DriftSpec segment
//     schedule (scripted mid-run breakpoints), clamped into [c1, c2].
#pragma once

#include <cstdint>
#include <memory>

#include "rstp/common/rng.h"
#include "rstp/common/time.h"
#include "rstp/core/drift.h"
#include "rstp/core/params.h"

namespace rstp::sim {

class StepScheduler {
 public:
  virtual ~StepScheduler() = default;

  /// Offset of the process's first local step from time 0. Must be in
  /// [0, c2] (the process must take its first step within c2).
  [[nodiscard]] virtual Duration first_offset() = 0;

  /// Gap between step `step_index - 1` and step `step_index` (1-based).
  /// Must be in [c1, c2].
  [[nodiscard]] virtual Duration next_gap(std::uint64_t step_index) = 0;
};

class FixedRateScheduler final : public StepScheduler {
 public:
  explicit FixedRateScheduler(Duration gap, Duration first = Duration{0});
  [[nodiscard]] Duration first_offset() override { return first_; }
  /// Inline, so the typed simulator instances read the gap without a call.
  [[nodiscard]] Duration next_gap(std::uint64_t /*step_index*/) override { return gap_; }

 private:
  Duration gap_;
  Duration first_;
};

class SeededRandomScheduler final : public StepScheduler {
 public:
  SeededRandomScheduler(Rng rng, core::TimingParams params);
  [[nodiscard]] Duration first_offset() override;
  [[nodiscard]] Duration next_gap(std::uint64_t step_index) override;

 private:
  Rng rng_;
  core::TimingParams params_;
};

class SawtoothScheduler final : public StepScheduler {
 public:
  explicit SawtoothScheduler(core::TimingParams params);
  [[nodiscard]] Duration first_offset() override { return Duration{0}; }
  [[nodiscard]] Duration next_gap(std::uint64_t step_index) override;

 private:
  core::TimingParams params_;
};

class DriftScheduler final : public StepScheduler {
 public:
  /// Alternates runs of `run_length` fast (c1) steps and `run_length` slow
  /// (c2) steps.
  DriftScheduler(core::TimingParams params, std::uint64_t run_length);
  [[nodiscard]] Duration first_offset() override { return Duration{0}; }
  [[nodiscard]] Duration next_gap(std::uint64_t step_index) override;

 private:
  core::TimingParams params_;
  std::uint64_t run_length_;
};

class DriftingSpecScheduler final : public StepScheduler {
 public:
  /// Follows `spec`: the gap after an instant t is the active segment's
  /// c2_eff (or the envelope c2 when the segment leaves it unset), clamped
  /// into [c1, c2] so every emitted gap stays in-model for the envelope. The
  /// StepScheduler interface carries no simulation clock, so the scheduler
  /// keys segments to its own cumulative step clock — exactly this process's
  /// timeline. Requires a non-empty, valid spec.
  DriftingSpecScheduler(core::DriftSpec spec, core::TimingParams params);
  [[nodiscard]] Duration first_offset() override { return Duration{0}; }
  [[nodiscard]] Duration next_gap(std::uint64_t step_index) override;

 private:
  core::DriftSpec spec_;
  core::TimingParams params_;
  Time clock_{};  ///< instant of this process's most recent step
};

/// Factories matching the policy factories in channel/policies.h.
[[nodiscard]] std::unique_ptr<StepScheduler> make_fixed_rate(Duration gap,
                                                             Duration first = Duration{0});
[[nodiscard]] std::unique_ptr<StepScheduler> make_seeded_random(std::uint64_t seed,
                                                                core::TimingParams params);
[[nodiscard]] std::unique_ptr<StepScheduler> make_sawtooth(core::TimingParams params);
[[nodiscard]] std::unique_ptr<StepScheduler> make_drift(core::TimingParams params,
                                                        std::uint64_t run_length);
[[nodiscard]] std::unique_ptr<StepScheduler> make_drifting_scheduler(core::DriftSpec spec,
                                                                     core::TimingParams params);

}  // namespace rstp::sim
