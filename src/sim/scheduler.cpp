#include "rstp/sim/scheduler.h"

#include <algorithm>

#include "rstp/common/check.h"

namespace rstp::sim {

FixedRateScheduler::FixedRateScheduler(Duration gap, Duration first) : gap_(gap), first_(first) {
  RSTP_CHECK_GT(gap_.ticks(), 0, "fixed rate gap must be positive");
  RSTP_CHECK(!first_.is_negative(), "first offset must be non-negative");
}

SeededRandomScheduler::SeededRandomScheduler(Rng rng, core::TimingParams params)
    : rng_(rng), params_(params) {
  params_.validate();
}

Duration SeededRandomScheduler::first_offset() {
  return rng_.next_duration(Duration{0}, params_.c2);
}

Duration SeededRandomScheduler::next_gap(std::uint64_t /*step_index*/) {
  return rng_.next_duration(params_.c1, params_.c2);
}

SawtoothScheduler::SawtoothScheduler(core::TimingParams params) : params_(params) {
  params_.validate();
}

Duration SawtoothScheduler::next_gap(std::uint64_t step_index) {
  return (step_index % 2 == 0) ? params_.c1 : params_.c2;
}

DriftScheduler::DriftScheduler(core::TimingParams params, std::uint64_t run_length)
    : params_(params), run_length_(run_length) {
  params_.validate();
  RSTP_CHECK_GT(run_length_, std::uint64_t{0}, "drift run length must be positive");
}

Duration DriftScheduler::next_gap(std::uint64_t step_index) {
  const std::uint64_t run = step_index / run_length_;
  return (run % 2 == 0) ? params_.c1 : params_.c2;
}

DriftingSpecScheduler::DriftingSpecScheduler(core::DriftSpec spec, core::TimingParams params)
    : spec_(std::move(spec)), params_(params) {
  params_.validate();
  spec_.validate();
  RSTP_CHECK(!spec_.empty(), "drifting scheduler requires a non-empty spec");
}

Duration DriftingSpecScheduler::next_gap(std::uint64_t /*step_index*/) {
  const core::DriftSpec::Segment& seg = spec_.segment_at(clock_);
  const Duration target = seg.c2_eff.value_or(params_.c2);
  const Duration gap{std::clamp(target.ticks(), params_.c1.ticks(), params_.c2.ticks())};
  clock_ += gap;
  return gap;
}

std::unique_ptr<StepScheduler> make_fixed_rate(Duration gap, Duration first) {
  return std::make_unique<FixedRateScheduler>(gap, first);
}

std::unique_ptr<StepScheduler> make_seeded_random(std::uint64_t seed, core::TimingParams params) {
  return std::make_unique<SeededRandomScheduler>(Rng{seed}, params);
}

std::unique_ptr<StepScheduler> make_sawtooth(core::TimingParams params) {
  return std::make_unique<SawtoothScheduler>(params);
}

std::unique_ptr<StepScheduler> make_drift(core::TimingParams params, std::uint64_t run_length) {
  return std::make_unique<DriftScheduler>(params, run_length);
}

std::unique_ptr<StepScheduler> make_drifting_scheduler(core::DriftSpec spec,
                                                       core::TimingParams params) {
  return std::make_unique<DriftingSpecScheduler>(std::move(spec), params);
}

}  // namespace rstp::sim
