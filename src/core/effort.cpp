#include "rstp/core/effort.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "rstp/channel/policies.h"
#include "rstp/common/check.h"
#include "rstp/common/rng.h"

namespace rstp::core {

Environment Environment::worst_case() { return Environment{}; }

Environment Environment::adversarial_fast() {
  Environment env;
  env.transmitter_sched = Sched::FastFixed;
  env.receiver_sched = Sched::FastFixed;
  env.delay = Delay::Adversarial;
  return env;
}

Environment Environment::randomized(std::uint64_t seed) {
  Environment env;
  env.transmitter_sched = Sched::Random;
  env.receiver_sched = Sched::Random;
  env.delay = Delay::Random;
  env.seed = seed;
  return env;
}

std::unique_ptr<sim::StepScheduler> make_scheduler(Environment::Sched kind,
                                                   const TimingParams& params,
                                                   std::uint64_t seed) {
  switch (kind) {
    case Environment::Sched::SlowFixed:
      return sim::make_fixed_rate(params.c2);
    case Environment::Sched::FastFixed:
      return sim::make_fixed_rate(params.c1);
    case Environment::Sched::Random:
      return sim::make_seeded_random(seed, params);
    case Environment::Sched::Sawtooth:
      return sim::make_sawtooth(params);
  }
  RSTP_UNREACHABLE("unknown scheduler kind");
}

std::unique_ptr<channel::DeliveryPolicy> make_delivery_policy(Environment::Delay kind,
                                                              const TimingParams& params,
                                                              std::uint64_t seed) {
  switch (kind) {
    case Environment::Delay::Max:
      return channel::make_max_delay();
    case Environment::Delay::Zero:
      return channel::make_zero_delay();
    case Environment::Delay::Random:
      return channel::make_uniform_random(seed, Duration{0}, params.d, params.d);
    case Environment::Delay::Adversarial: {
      // The Lemma 5.1 grouping of δ1 steps: ⌊d/c1⌋·c1 ≤ d is the largest
      // legal batching window aligned to the fastest step rate.
      const Duration window = params.c1 * params.delta1();
      return channel::make_adversarial_batch(window, params.d);
    }
  }
  RSTP_UNREACHABLE("unknown delay kind");
}

std::unique_ptr<sim::Session> make_session(protocols::ProtocolKind kind,
                                           const protocols::ProtocolConfig& config,
                                           const Environment& env, sim::SimConfig sim_config,
                                           const PolicyFactory& policy, Duration min_delay) {
  protocols::ProtocolInstance instance = protocols::make_protocol(kind, config);
  Rng seeder{env.seed};
  const std::uint64_t t_seed = seeder.next_u64();
  const std::uint64_t r_seed = seeder.next_u64();
  const std::uint64_t policy_seed = seeder.next_u64();
  const TimingParams& t_params = sim_config.transmitter_params.value_or(sim_config.params);
  const TimingParams& r_params = sim_config.receiver_params.value_or(sim_config.params);
  return std::make_unique<sim::Session>(
      std::move(instance), make_scheduler(env.transmitter_sched, t_params, t_seed),
      make_scheduler(env.receiver_sched, r_params, r_seed),
      policy ? policy(policy_seed)
             : make_delivery_policy(env.delay, sim_config.params, policy_seed),
      std::move(sim_config), min_delay);
}

ProtocolRun run_protocol(protocols::ProtocolKind kind, const protocols::ProtocolConfig& config,
                         const Environment& env, bool record_trace, std::uint64_t max_events,
                         sim::SimObserver* observer) {
  sim::SimConfig sim_config;
  sim_config.params = config.params;
  sim_config.record_trace = record_trace;
  sim_config.max_events = max_events;
  sim_config.observer = observer;
  ProtocolRun run;
  run.result = make_session(kind, config, env, std::move(sim_config))->run();
  run.output_correct = run.result.output == config.input;
  return run;
}

EffortMeasurement measure_effort(protocols::ProtocolKind kind, const TimingParams& params,
                                 std::uint32_t k, std::size_t n, const Environment& env,
                                 std::uint64_t input_seed) {
  protocols::ProtocolConfig config;
  config.params = params;
  config.k = k;
  config.input = make_random_input(n, input_seed);

  return effort_of(run_protocol(kind, config, env, /*record_trace=*/false), n);
}

EffortMeasurement effort_of(const ProtocolRun& run, std::size_t n) {
  EffortMeasurement m;
  m.n = n;
  m.last_send = run.result.last_transmitter_send;
  m.output_correct = run.output_correct;
  m.quiescent = run.result.quiescent;
  m.transmitter_sends = run.result.transmitter_sends;
  if (n > 0 && m.last_send.has_value()) {
    m.effort = static_cast<double>((*m.last_send - Time::zero()).ticks()) /
               static_cast<double>(n);
  }
  return m;
}

EffortDistribution measure_effort_distribution(protocols::ProtocolKind kind,
                                               const TimingParams& params, std::uint32_t k,
                                               std::size_t n, std::size_t samples,
                                               std::uint64_t seed) {
  RSTP_CHECK_GE(samples, std::size_t{1}, "need at least one sample");
  RSTP_CHECK_GE(n, std::size_t{1}, "need a non-empty input");
  Rng rng{seed};
  // One input shared by every sample (built once, not per sample).
  protocols::ProtocolConfig config;
  config.params = params;
  config.k = k;
  config.input = make_random_input(n, rng.next_u64());

  std::vector<double> efforts;
  efforts.reserve(samples);
  bool all_correct = true;
  for (std::size_t i = 0; i < samples; ++i) {
    const ProtocolRun run = run_protocol(kind, config, Environment::randomized(rng.next_u64()),
                                         /*record_trace=*/false);
    all_correct = all_correct && run.output_correct && run.result.quiescent;
    efforts.push_back(effort_of(run, n).effort);
  }
  std::sort(efforts.begin(), efforts.end());

  EffortDistribution dist;
  dist.samples = samples;
  dist.all_correct = all_correct;
  dist.min = efforts.front();
  dist.max = efforts.back();
  double sum = 0;
  for (const double e : efforts) sum += e;
  dist.mean = sum / static_cast<double>(samples);
  // Nearest-rank percentile: the ⌈0.95·N⌉-th smallest (1-based).
  const auto rank_1based =
      static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(samples)));
  dist.p95 = efforts[std::min(samples, std::max<std::size_t>(1, rank_1based)) - 1];
  return dist;
}

std::vector<ioa::Bit> make_random_input(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<ioa::Bit> bits(n);
  for (auto& b : bits) {
    b = rng.next_bool() ? 1 : 0;
  }
  return bits;
}

std::vector<ioa::Bit> make_alternating_input(std::size_t n) {
  std::vector<ioa::Bit> bits(n);
  for (std::size_t i = 0; i < n; ++i) {
    bits[i] = static_cast<ioa::Bit>(i & 1);
  }
  return bits;
}

std::vector<ioa::Bit> make_constant_input(std::size_t n, ioa::Bit value) {
  RSTP_CHECK(value == 0 || value == 1, "bit value");
  return std::vector<ioa::Bit>(n, value);
}

}  // namespace rstp::core
