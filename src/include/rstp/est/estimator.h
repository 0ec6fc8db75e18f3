// Online (c1, c2, d) estimation: the self-tuning layer over the paper's
// oracle constants.
//
// The paper hands every protocol the channel constants that drive A^β/A^γ
// block sizing. Real deployments discover them — the adaptive-RTO discipline
// of RFC 6298 is the standard answer, and this module transplants it into
// the model: a TimingEstimator observes every step gap and every
// send→delivery delay from inside a run (armed as the simulator's
// sim::SimObserver, zero effect when absent) and maintains
//
//   ĉ1 = max(1, ⌊min_gap · (1 − margin)⌋)            (running minimum)
//   ĉ2 = max(ĉ1, round((gap_srtt + 4·gap_var) · (1 + margin)))
//   d̂  = max(ĉ2, round((srtt + 4·rttvar) · (1 + margin)))
//
// with SRTT/RTTVAR-style exponentially weighted means (gain 1/8, variance
// gain 1/4, first sample seeding variance at sample/2 — all per RFC 6298).
// d̂ deliberately uses the EWMA rather than a running max so it re-converges
// *downward* after a drift breakpoint shortens the true delay. The clamp
// chain keeps every estimate legal (1 ≤ ĉ1 ≤ ĉ2 ≤ d̂) no matter how
// adversarial the samples; with no samples at all the estimate is (1,1,1),
// making block 0 a one-packet probe.
//
// A live protocols::BlockPlanner (protocols/block_planner.h) reads
// estimate() when each block starts; A^β/A^γ read their block sizes from
// it. The same automata run the oracle constants through a fixed planner,
// so estimation changes where δ comes from, not Figures 3/4. A live planner
// also reads outstanding(): β drains the attached channel between blocks.
#pragma once

#include <cstdint>

#include "rstp/core/params.h"
#include "rstp/ioa/action.h"
#include "rstp/obs/run_metrics.h"
#include "rstp/sim/observer.h"

namespace rstp::channel {
class Channel;
}

namespace rstp::est {

struct EstimatorConfig {
  double margin = 0.125;       ///< safety margin applied to every estimate
  double gain = 0.125;         ///< EWMA gain for the means (RFC 6298 alpha)
  double var_gain = 0.25;      ///< EWMA gain for the deviations (RFC 6298 beta)
  std::uint32_t max_block = 256;  ///< cap on any planned δ

  /// Throws rstp::ContractViolation unless margin ∈ [0, 1), both gains are in
  /// (0, 1], and max_block >= 1.
  void validate() const;

  friend bool operator==(const EstimatorConfig&, const EstimatorConfig&) = default;
};

/// The EWMA+variance estimator. One instance per run, armed as the run's
/// sim::SimObserver (every step gap and every delivery delay feeds it); both
/// protocol sides read it through the shared live planner.
class TimingEstimator final : public sim::SimObserver {
 public:
  explicit TimingEstimator(EstimatorConfig config);

  /// Non-owning; lets outstanding() see the channel's in-flight count so a
  /// live-planned β transmitter can drain between blocks even when d̂ is low.
  void attach_channel(const channel::Channel* channel) { channel_ = channel; }

  /// One step gap of either process (always in [c1, c2] in-model).
  void observe_gap(Duration gap);

  /// One send→delivery delay of either direction (always ≤ d in-model).
  void observe_delay(Duration delay);

  /// Feeds a delivery's delay, or a local step's gap (none on a process's
  /// first step, whose context gap is zero).
  void on_event(const ioa::TimedEvent& event, const sim::EventContext& context) override {
    if (event.actor == ioa::Actor::Channel) {
      observe_delay(event.time - context.sent_at);
    } else if (context.gap > Duration{0}) {
      observe_gap(context.gap);
    }
  }

  /// The current legal estimate: 1 ≤ ĉ1 ≤ ĉ2 ≤ d̂ always holds.
  [[nodiscard]] core::TimingParams estimate() const;

  [[nodiscard]] std::uint64_t gap_samples() const { return gap_samples_; }
  [[nodiscard]] std::uint64_t delay_samples() const { return delay_samples_; }
  /// Packets currently in flight (0 when no channel is attached).
  [[nodiscard]] std::uint64_t outstanding() const;
  [[nodiscard]] const EstimatorConfig& config() const { return config_; }

 private:
  EstimatorConfig config_;
  const channel::Channel* channel_ = nullptr;
  bool have_gap_ = false;
  std::int64_t min_gap_ = 0;   ///< running minimum (no decay: c1 is a floor)
  double gap_srtt_ = 0;
  double gap_var_ = 0;
  bool have_delay_ = false;
  double srtt_ = 0;
  double rttvar_ = 0;
  std::uint64_t gap_samples_ = 0;
  std::uint64_t delay_samples_ = 0;
};

}  // namespace rstp::est
