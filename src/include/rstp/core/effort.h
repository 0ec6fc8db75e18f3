// Empirical effort measurement (paper §4's eff(A)).
//
// eff(A) = suplim_{n→∞} max{ t(last-send(η^t)) : η^t ∈ good(A(n)) } / n.
//
// The max over good executions is attained by the slowest admissible
// environment: both processes stepping every c2 and the channel holding
// every packet the full d (for active protocols the ack path also pays d).
// measure_effort drives exactly that environment — or any other the caller
// picks — records t(last-send), and divides by n; measuring at growing n
// approximates the suplim (the benches report several n and the asymptote).
//
// Every measurement re-derives Y and compares with X, so an effort number
// from a corrupted run can never be reported silently (see
// EffortMeasurement::output_correct).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "rstp/core/params.h"
#include "rstp/ioa/explorer.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/session.h"

namespace rstp::core {

/// One named environment = a scheduler choice per process + a channel policy.
struct Environment {
  enum class Sched : std::uint8_t {
    SlowFixed,  ///< every c2 (worst case for effort)
    FastFixed,  ///< every c1 (the lower-bound proofs' "fast" executions)
    Random,     ///< uniform in [c1, c2]
    Sawtooth,   ///< alternating c1, c2
  };
  enum class Delay : std::uint8_t {
    Max,          ///< every packet takes exactly d
    Zero,         ///< instantaneous delivery
    Random,       ///< uniform in [0, d] (reorders)
    Adversarial,  ///< batch adversary over windows of ⌈d/c1⌉·c1 (Lemma 5.1)
  };

  Sched transmitter_sched = Sched::SlowFixed;
  Sched receiver_sched = Sched::SlowFixed;
  Delay delay = Delay::Max;
  std::uint64_t seed = 1;  ///< used by Random variants

  /// The environment attaining (up to discretization) the paper's max:
  /// SlowFixed/SlowFixed/Max.
  [[nodiscard]] static Environment worst_case();
  /// The lower-bound proofs' environment: FastFixed/FastFixed/Adversarial.
  [[nodiscard]] static Environment adversarial_fast();
  /// Randomized-everything environment for property tests.
  [[nodiscard]] static Environment randomized(std::uint64_t seed);
};

/// Builds the scheduler / channel a given Environment describes.
[[nodiscard]] std::unique_ptr<sim::StepScheduler> make_scheduler(Environment::Sched kind,
                                                                 const TimingParams& params,
                                                                 std::uint64_t seed);
[[nodiscard]] std::unique_ptr<channel::DeliveryPolicy> make_delivery_policy(
    Environment::Delay kind, const TimingParams& params, std::uint64_t seed);

/// Builds a delivery policy from the environment's delivery-policy seed.
using PolicyFactory =
    std::function<std::unique_ptr<channel::DeliveryPolicy>(std::uint64_t seed)>;

/// Instantiates `kind` over `config` and wires it into a Session in `env`.
/// The only code that expands an environment seed: Rng{env.seed} yields the
/// transmitter-scheduler, receiver-scheduler and delivery-policy seeds, in
/// that order. The schedulers follow `sim_config`'s per-process laws (its
/// transmitter/receiver overrides, else its params); the delivery policy is
/// make_delivery_policy(env.delay, sim_config.params, seed) unless `policy`
/// is given. `min_delay` is the channel's lower delivery edge.
[[nodiscard]] std::unique_ptr<sim::Session> make_session(
    protocols::ProtocolKind kind, const protocols::ProtocolConfig& config,
    const Environment& env, sim::SimConfig sim_config, const PolicyFactory& policy = {},
    Duration min_delay = Duration{0});

/// A complete protocol run plus its derived verdicts.
struct ProtocolRun {
  sim::RunResult result;
  bool output_correct = false;  ///< Y == X
};

/// Instantiates `kind` over `config`, runs it in `env`, and reports.
/// `record_trace=false` keeps memory flat for large n. `observer`
/// (sim/observer.h; non-owning) watches the run, e.g. the causal span
/// tracer; it is a pure observer and cannot change any result bit.
[[nodiscard]] ProtocolRun run_protocol(protocols::ProtocolKind kind,
                                       const protocols::ProtocolConfig& config,
                                       const Environment& env, bool record_trace = true,
                                       std::uint64_t max_events = 50'000'000,
                                       sim::SimObserver* observer = nullptr);

/// Instantiates `kind` over `config` and explores every admissible schedule
/// with delays up to config.params.d (ioa/explorer.h): safety is "Y is a
/// prefix of X", completion is "Y = X". Defined in core/explore.cpp, so a
/// program that only runs protocols does not link the explorer.
[[nodiscard]] ioa::ExplorerResult explore_transfer(protocols::ProtocolKind kind,
                                                   const protocols::ProtocolConfig& config);

struct EffortMeasurement {
  std::size_t n = 0;              ///< |X|
  double effort = 0;              ///< t(last-send)/n, in ticks per message
  std::optional<Time> last_send;  ///< t(last-send)
  bool output_correct = false;    ///< Y == X
  bool quiescent = false;         ///< run completed (vs hit the event cap)
  std::uint64_t transmitter_sends = 0;
};

/// The effort verdicts of one finished run over an n-bit input.
[[nodiscard]] EffortMeasurement effort_of(const ProtocolRun& run, std::size_t n);

/// Measures effort on a uniformly random n-bit input (seeded) in `env`.
[[nodiscard]] EffortMeasurement measure_effort(protocols::ProtocolKind kind,
                                               const TimingParams& params, std::uint32_t k,
                                               std::size_t n, const Environment& env,
                                               std::uint64_t input_seed = 0xC0FFEE);

/// Summary of effort over many randomized environments (fresh scheduler and
/// channel randomness per sample; fixed input). eff(A)'s max-over-executions
/// definition predicts worst_case ≥ max over any sample set — the E15 bench
/// and tests check exactly that.
struct EffortDistribution {
  std::size_t samples = 0;
  double min = 0;
  double mean = 0;
  double max = 0;
  double p95 = 0;     ///< 95th percentile (nearest-rank)
  bool all_correct = false;
};

/// Runs `samples` fully randomized environments (seeds derived from `seed`)
/// and summarizes the measured efforts. Requires samples >= 1 and n >= 1.
[[nodiscard]] EffortDistribution measure_effort_distribution(protocols::ProtocolKind kind,
                                                             const TimingParams& params,
                                                             std::uint32_t k, std::size_t n,
                                                             std::size_t samples,
                                                             std::uint64_t seed = 0xD157);

/// Uniformly random bit sequence; the standard workload generator.
[[nodiscard]] std::vector<ioa::Bit> make_random_input(std::size_t n, std::uint64_t seed);

/// Alternating 0101… sequence (worst case for naive run-length schemes).
[[nodiscard]] std::vector<ioa::Bit> make_alternating_input(std::size_t n);

/// All-zero / all-one sequences.
[[nodiscard]] std::vector<ioa::Bit> make_constant_input(std::size_t n, ioa::Bit value);

}  // namespace rstp::core
