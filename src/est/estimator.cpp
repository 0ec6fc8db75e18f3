#include "rstp/est/estimator.h"

#include <algorithm>
#include <cmath>

#include "rstp/channel/channel.h"
#include "rstp/common/check.h"

namespace rstp::est {

void EstimatorConfig::validate() const {
  RSTP_CHECK(margin >= 0.0 && margin < 1.0, "estimator margin must be in [0, 1)");
  RSTP_CHECK(gain > 0.0 && gain <= 1.0, "estimator gain must be in (0, 1]");
  RSTP_CHECK(var_gain > 0.0 && var_gain <= 1.0, "estimator var_gain must be in (0, 1]");
  RSTP_CHECK(max_block >= 1, "estimator max_block must be at least 1");
}

TimingEstimator::TimingEstimator(EstimatorConfig config) : config_(config) {
  config_.validate();
}

void TimingEstimator::observe_gap(Duration gap) {
  RSTP_CHECK(!gap.is_negative(), "estimator observed a negative step gap");
  const auto sample = static_cast<double>(gap.ticks());
  if (!have_gap_) {
    have_gap_ = true;
    min_gap_ = gap.ticks();
    gap_srtt_ = sample;
    gap_var_ = sample / 2.0;  // RFC 6298 first-sample seeding
  } else {
    min_gap_ = std::min(min_gap_, gap.ticks());
    gap_var_ += config_.var_gain * (std::abs(gap_srtt_ - sample) - gap_var_);
    gap_srtt_ += config_.gain * (sample - gap_srtt_);
  }
  ++gap_samples_;
}

void TimingEstimator::observe_delay(Duration delay) {
  RSTP_CHECK(!delay.is_negative(), "estimator observed a negative delivery delay");
  const auto sample = static_cast<double>(delay.ticks());
  if (!have_delay_) {
    have_delay_ = true;
    srtt_ = sample;
    rttvar_ = sample / 2.0;
  } else {
    rttvar_ += config_.var_gain * (std::abs(srtt_ - sample) - rttvar_);
    srtt_ += config_.gain * (sample - srtt_);
  }
  ++delay_samples_;
}

core::TimingParams TimingEstimator::estimate() const {
  // The clamp chain below is the legality proof: each line lower-bounds the
  // next quantity by the previous one, so 1 <= c1 <= c2 <= d holds for any
  // sample history (including adversarial drift).
  std::int64_t c1 = 1;
  if (have_gap_) {
    c1 = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(
               std::floor(static_cast<double>(min_gap_) * (1.0 - config_.margin))));
  }
  std::int64_t c2 = c1;
  if (have_gap_) {
    c2 = std::max<std::int64_t>(
        c1, std::llround((gap_srtt_ + 4.0 * gap_var_) * (1.0 + config_.margin)));
  }
  std::int64_t d = c2;
  if (have_delay_) {
    d = std::max<std::int64_t>(d,
                               std::llround((srtt_ + 4.0 * rttvar_) * (1.0 + config_.margin)));
  }
  return core::TimingParams{Duration{c1}, Duration{c2}, Duration{d}};
}

std::uint64_t TimingEstimator::outstanding() const {
  return channel_ == nullptr ? 0 : channel_->in_flight();
}

}  // namespace rstp::est
