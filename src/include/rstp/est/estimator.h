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
// A BlockPlanner turns the live estimates into per-block transmission plans
// for the adaptive β/γ automata (est/adaptive.h). The planner is *shared*
// between the transmitter and receiver of a pair (via ProtocolConfig): block
// j's plan is computed once, at the first time either side needs it, from
// the estimator state at that instant, and then frozen. Since the receiver
// first touches plan(j) only when block j's first packet arrives — which the
// transmitter sent after computing plan(j) — both sides always agree on
// (δ_j, B_j, symbols), and a resize (δ_{j+1} ≠ δ_j) can only happen at a
// block boundary, by construction.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "rstp/combinatorics/block_coder.h"
#include "rstp/core/params.h"
#include "rstp/ioa/action.h"
#include "rstp/obs/run_metrics.h"
#include "rstp/sim/observer.h"

namespace rstp::channel {
class Channel;
}

namespace rstp::est {

/// Final-state estimator gauges; the obs layer owns the struct so the sinks
/// and diff gate can carry it without depending on this module.
using EstimatorStats = obs::EstimatorGauges;

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
/// protocol sides read it through the shared planner.
class TimingEstimator final : public sim::SimObserver {
 public:
  explicit TimingEstimator(EstimatorConfig config);

  /// Non-owning; lets outstanding() see the channel's in-flight count so the
  /// adaptive β transmitter can drain between blocks even when d̂ is low.
  void attach_channel(const channel::Channel* channel) { channel_ = channel; }

  /// One step gap of either process (always in [c1, c2] in-model).
  void observe_gap(Duration gap);

  /// One send→delivery delay of either direction (always ≤ d in-model).
  void observe_delay(Duration delay);

  void on_local_step(ioa::ProcessId /*id*/, Time /*at*/, const ioa::Action& /*action*/,
                     std::optional<Duration> gap,
                     const obs::ProtocolCounters* /*counters*/) override {
    if (gap.has_value()) observe_gap(*gap);
  }
  void on_delivery(ioa::ProcessId /*dest*/, Time sent_at, Time deliver_at,
                   const ioa::Packet& /*packet*/, std::uint64_t /*send_seq*/,
                   const obs::ProtocolCounters* /*dest_counters*/) override {
    observe_delay(deliver_at - sent_at);
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

/// One block's frozen transmission plan.
struct BlockPlan {
  std::uint32_t delta = 1;   ///< δ_j: packets in this block
  std::uint32_t wait = 0;    ///< β: minimum wait_t steps after the block (γ: 0)
  std::size_t first_bit = 0; ///< offset of this block's slice of X
  std::size_t bits = 0;      ///< real input bits carried (≤ coder bits/block)
  std::shared_ptr<const combinatorics::BlockCoder> coder;
  std::vector<combinatorics::Symbol> symbols;  ///< δ_j symbols, canonical order
};

/// Computes and freezes per-block plans from the live estimates. Shared by
/// the (A_t, A_r) pair of one run; see the header comment for the agreement
/// argument. Not thread-safe — one planner belongs to exactly one run.
class BlockPlanner {
 public:
  /// Which block discipline consumes the plans: β sizes blocks by δ̂1 (and
  /// waits that many steps plus a channel drain), γ by δ̂2 (ack-gated).
  enum class Discipline : std::uint8_t { TimedBlocks, AckedBlocks };

  BlockPlanner(Discipline discipline, std::uint32_t k, std::vector<ioa::Bit> input,
               std::shared_ptr<TimingEstimator> estimator);

  /// The plan for block j. Computed (from the estimator state at this
  /// instant) and frozen on first request; j may exceed the computed prefix
  /// by at most one. Requires has_block(j).
  const BlockPlan& plan(std::size_t j);

  /// True iff block j exists (the input is not exhausted before it).
  /// Requires plan(j-1) to have been computed for j >= 1.
  [[nodiscard]] bool has_block(std::size_t j) const;

  [[nodiscard]] std::uint64_t outstanding() const { return estimator_->outstanding(); }
  /// Number of boundaries where δ changed (the resize gauge).
  [[nodiscard]] std::uint64_t resizes() const { return resizes_; }
  [[nodiscard]] std::size_t input_bits() const { return input_.size(); }
  [[nodiscard]] std::uint32_t alphabet() const { return k_; }
  [[nodiscard]] Discipline discipline() const { return discipline_; }
  [[nodiscard]] TimingEstimator& estimator() { return *estimator_; }
  [[nodiscard]] const TimingEstimator& estimator() const { return *estimator_; }

 private:
  Discipline discipline_;
  std::uint32_t k_;
  std::vector<ioa::Bit> input_;
  std::shared_ptr<TimingEstimator> estimator_;
  std::vector<BlockPlan> plans_;
  std::map<std::uint32_t, std::shared_ptr<const combinatorics::BlockCoder>> coders_;
  std::uint64_t resizes_ = 0;
};

}  // namespace rstp::est
