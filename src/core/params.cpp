#include "rstp/core/params.h"

#include <ostream>

#include "rstp/common/check.h"

namespace rstp::core {

void TimingParams::validate() const {
  RSTP_CHECK_GT(c1.ticks(), 0, "c1 must be positive");
  RSTP_CHECK_LE(c1.ticks(), c2.ticks(), "need c1 <= c2");
  RSTP_CHECK_LE(c2.ticks(), d.ticks(), "need c2 <= d");
  RSTP_CHECK_LE(delta1_wait(), kMaxSteps, "need ceil(d/c1) <= 2^32 - 1");
}

std::int64_t TimingParams::delta1() const { return d.floor_div(c1); }

std::int64_t TimingParams::delta1_wait() const { return d.ceil_div(c1); }

std::int64_t TimingParams::delta2() const { return d.floor_div(c2); }

TimingParams TimingParams::make(std::int64_t c1_ticks, std::int64_t c2_ticks,
                                std::int64_t d_ticks) {
  TimingParams p{Duration{c1_ticks}, Duration{c2_ticks}, Duration{d_ticks}};
  p.validate();
  return p;
}

std::ostream& operator<<(std::ostream& os, const TimingParams& p) {
  return os << "{c1=" << p.c1 << ", c2=" << p.c2 << ", d=" << p.d << "}";
}

}  // namespace rstp::core
