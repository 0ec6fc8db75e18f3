#include "rstp/general/params.h"

#include <algorithm>
#include <ostream>

#include "rstp/combinatorics/binomial.h"
#include "rstp/common/check.h"

namespace rstp::general {

void GeneralTimingParams::validate() const {
  RSTP_CHECK_GT(t_c1.ticks(), 0, "transmitter c1 must be positive");
  RSTP_CHECK_LE(t_c1.ticks(), t_c2.ticks(), "transmitter needs c1 <= c2");
  RSTP_CHECK_GT(r_c1.ticks(), 0, "receiver c1 must be positive");
  RSTP_CHECK_LE(r_c1.ticks(), r_c2.ticks(), "receiver needs c1 <= c2");
  RSTP_CHECK(!d_lo.is_negative(), "d1 must be non-negative");
  RSTP_CHECK_LE(d_lo.ticks(), d_hi.ticks(), "need d1 <= d2");
  RSTP_CHECK_LE(t_c2.ticks(), d_hi.ticks(), "need transmitter c2 <= d2");
  RSTP_CHECK_LE(r_c2.ticks(), d_hi.ticks(), "need receiver c2 <= d2");
  // Both processes' step counts fit core::TimingParams::kMaxSteps.
  envelope().validate();
}

GeneralTimingParams GeneralTimingParams::from_base(const core::TimingParams& base) {
  base.validate();
  return GeneralTimingParams{base.c1, base.c2, base.c1, base.c2, Duration{0}, base.d};
}

bool GeneralTimingParams::is_base() const {
  return t_c1 == r_c1 && t_c2 == r_c2 && d_lo == Duration{0};
}

std::int64_t GeneralTimingParams::delta1() const { return d_hi.floor_div(t_c1); }

std::int64_t GeneralTimingParams::beta_block() const { return d_hi.ceil_div(t_c1); }

std::int64_t GeneralTimingParams::beta_wait() const {
  return std::max<std::int64_t>(1, window_width().ceil_div(t_c1));
}

std::int64_t GeneralTimingParams::adversary_delta() const {
  return window_width().floor_div(t_c1);
}

std::int64_t GeneralTimingParams::delta2() const { return d_hi.floor_div(t_c2); }

core::TimingParams GeneralTimingParams::transmitter_params() const {
  return core::TimingParams{t_c1, t_c2, d_hi};
}

core::TimingParams GeneralTimingParams::receiver_params() const {
  return core::TimingParams{r_c1, r_c2, d_hi};
}

core::TimingParams GeneralTimingParams::envelope() const {
  return core::TimingParams{std::min(t_c1, r_c1), std::max(t_c2, r_c2), d_hi};
}

std::ostream& operator<<(std::ostream& os, const GeneralTimingParams& p) {
  return os << "{t:[" << p.t_c1 << "," << p.t_c2 << "] r:[" << p.r_c1 << "," << p.r_c2
            << "] d:[" << p.d_lo << "," << p.d_hi << "]}";
}

GeneralBoundsReport compute_general_bounds(const GeneralTimingParams& params, std::uint32_t k) {
  params.validate();
  RSTP_CHECK_GE(k, 2u, "bounds require a packet alphabet of at least two symbols");

  GeneralBoundsReport r;
  r.params = params;
  r.k = k;
  r.beta_block = params.beta_block();
  r.beta_wait = params.beta_wait();
  r.adversary_delta = params.adversary_delta();
  r.delta2 = params.delta2();

  const auto t_c2 = static_cast<double>(params.t_c2.ticks());
  const auto r_c2 = static_cast<double>(params.r_c2.ticks());
  const auto d2 = static_cast<double>(params.d_hi.ticks());

  r.beta_bits_per_block =
      combinatorics::floor_log2_mu(k, static_cast<std::uint32_t>(r.beta_block));
  r.gamma_bits_per_block =
      combinatorics::floor_log2_mu(k, static_cast<std::uint32_t>(r.delta2));

  // Passive lower bound: the batch adversary needs its window to fit in
  // d2 − d1; with a zero-width window the argument yields no bound.
  if (r.adversary_delta >= 1) {
    r.passive_lower =
        static_cast<double>(r.adversary_delta) * t_c2 /
        combinatorics::log2_zeta(k, static_cast<std::uint32_t>(r.adversary_delta));
  } else {
    r.passive_lower = 0.0;
  }
  r.active_lower = d2 / combinatorics::log2_zeta(k, static_cast<std::uint32_t>(r.delta2));

  r.alpha_effort = static_cast<double>(std::max<std::int64_t>(1, r.beta_wait)) * t_c2;
  r.beta_upper = static_cast<double>(r.beta_block + r.beta_wait) * t_c2 /
                 static_cast<double>(r.beta_bits_per_block);
  // Ack-queueing-aware block period (see the field's comment).
  const double ack_phase =
      std::max(static_cast<double>(r.delta2) * r_c2,
               static_cast<double>(r.delta2 - 1) * t_c2 + r_c2);
  r.gamma_upper =
      (2.0 * d2 + ack_phase + t_c2) / static_cast<double>(r.gamma_bits_per_block);
  return r;
}

std::ostream& operator<<(std::ostream& os, const GeneralBoundsReport& r) {
  os << "general bounds " << r.params << " k=" << r.k << '\n'
     << "  beta_block=" << r.beta_block << " beta_wait=" << r.beta_wait
     << " adversary_delta=" << r.adversary_delta << " delta2=" << r.delta2 << '\n'
     << "  B_beta=" << r.beta_bits_per_block << " B_gamma=" << r.gamma_bits_per_block << '\n'
     << "  passive_lower=" << r.passive_lower << " beta_upper=" << r.beta_upper << '\n'
     << "  active_lower=" << r.active_lower << " gamma_upper=" << r.gamma_upper << '\n'
     << "  alpha_effort=" << r.alpha_effort;
  return os;
}

}  // namespace rstp::general
