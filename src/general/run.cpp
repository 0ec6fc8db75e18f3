#include "rstp/general/run.h"

#include <utility>

#include "rstp/channel/policies.h"
#include "rstp/common/check.h"

namespace rstp::general {

namespace {

using core::Environment;

/// Delivery policy respecting the [d1, d2] window.
std::unique_ptr<channel::DeliveryPolicy> make_general_policy(Environment::Delay kind,
                                                             const GeneralTimingParams& params,
                                                             std::uint64_t seed) {
  switch (kind) {
    case Environment::Delay::Max:
      return channel::make_fixed_delay(params.d_hi);
    case Environment::Delay::Zero:
      // "As fast as the model allows": the window's lower edge.
      return channel::make_fixed_delay(params.d_lo);
    case Environment::Delay::Random:
      return channel::make_uniform_random(seed, params.d_lo, params.d_hi, params.d_hi);
    case Environment::Delay::Adversarial: {
      const Duration window = params.t_c1 * params.adversary_delta();
      if (window.ticks() <= 0) {
        // Zero-width delivery window: batching is impossible; the strongest
        // remaining adversary is plain max delay.
        return channel::make_fixed_delay(params.d_hi);
      }
      return channel::make_adversarial_batch(window, params.d_hi);
    }
  }
  RSTP_UNREACHABLE("unknown delay kind");
}

}  // namespace

protocols::ProtocolConfig make_general_config(protocols::ProtocolKind kind,
                                              const GeneralTimingParams& params, std::uint32_t k,
                                              std::vector<ioa::Bit> input) {
  params.validate();
  protocols::ProtocolConfig cfg;
  cfg.params = params.envelope();
  cfg.k = k;
  cfg.input = std::move(input);
  switch (kind) {
    case protocols::ProtocolKind::Beta:
    case protocols::ProtocolKind::Strawman:
      cfg.block_size_override = static_cast<std::uint32_t>(params.beta_block());
      cfg.wait_steps_override = static_cast<std::uint32_t>(params.beta_wait());
      break;
    case protocols::ProtocolKind::Gamma:
    case protocols::ProtocolKind::WindowedGamma:
      cfg.block_size_override = static_cast<std::uint32_t>(params.delta2());
      break;
    case protocols::ProtocolKind::Alpha:
      // α's wait is a pure separation wait; the general model shrinks it to
      // ⌈(d2−d1)/c1^t⌉ steps.
      cfg.params = params.transmitter_params();
      cfg.wait_steps_override = static_cast<std::uint32_t>(params.beta_wait());
      break;
    case protocols::ProtocolKind::AltBit:
    case protocols::ProtocolKind::Indexed:
      cfg.params = params.transmitter_params();  // timing-free protocols
      break;
  }
  return cfg;
}

core::ProtocolRun run_general_protocol(protocols::ProtocolKind kind,
                                       const GeneralTimingParams& params, std::uint32_t k,
                                       std::vector<ioa::Bit> input, const GeneralEnvironment& env,
                                       bool record_trace, std::uint64_t max_events) {
  const protocols::ProtocolConfig cfg = make_general_config(kind, params, k, std::move(input));
  sim::SimConfig sim_config;
  sim_config.params = params.envelope();
  sim_config.transmitter_params = params.transmitter_params();
  sim_config.receiver_params = params.receiver_params();
  sim_config.record_trace = record_trace;
  sim_config.max_events = max_events;
  const auto policy = [&](std::uint64_t seed) {
    return make_general_policy(env.delay, params, seed);
  };

  core::ProtocolRun run;
  run.result =
      core::make_session(kind, cfg, env, std::move(sim_config), policy, params.d_lo)->run();
  run.output_correct = run.result.output == cfg.input;
  return run;
}

core::VerifyResult verify_general_trace(const ioa::TimedTrace& trace,
                                        const GeneralTimingParams& params,
                                        std::span<const ioa::Bit> input, bool require_complete) {
  core::VerifyOptions options;
  options.require_complete = require_complete;
  options.transmitter_params = params.transmitter_params();
  options.receiver_params = params.receiver_params();
  options.min_delay = params.d_lo;
  return core::verify_trace(trace, params.envelope(), input, options);
}

core::EffortMeasurement measure_general_effort(protocols::ProtocolKind kind,
                                               const GeneralTimingParams& params, std::uint32_t k,
                                               std::size_t n, const GeneralEnvironment& env,
                                               std::uint64_t input_seed) {
  return core::effort_of(run_general_protocol(kind, params, k,
                                              core::make_random_input(n, input_seed), env,
                                              /*record_trace=*/false),
                         n);
}

}  // namespace rstp::general
