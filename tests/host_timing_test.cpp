// Tests for the host-time path (ctest -L obs; also in -L gate): the
// obs::HostTimer recorder, the call-boundary decorators sim::Session installs
// when SimConfig::host_timer is set, and the attribution of a wall time to
// layers, timers and residual. The gate case pins that timing a session
// leaves its RunResult equal field for field to an untimed one.
#include "rstp/obs/host_timer.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rstp/common/time.h"
#include "rstp/core/drift.h"
#include "rstp/core/effort.h"
#include "rstp/est/runner.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/session.h"

namespace rstp {
namespace {

using obs::HostTimer;
using protocols::ProtocolKind;

const obs::LayerTotal& layer_named(const HostTimer& timer, const std::string& name) {
  for (const obs::LayerTotal& total : timer.layers()) {
    if (total.name == name) return total;
  }
  ADD_FAILURE() << "no layer " << name;
  static const obs::LayerTotal kNone;
  return kNone;
}

void expect_same_run(const sim::RunResult& timed, const sim::RunResult& plain) {
  EXPECT_EQ(timed.trace.events(), plain.trace.events());
  EXPECT_EQ(timed.output, plain.output);
  EXPECT_EQ(timed.last_transmitter_send, plain.last_transmitter_send);
  EXPECT_EQ(timed.end_time, plain.end_time);
  EXPECT_EQ(timed.event_count, plain.event_count);
  EXPECT_EQ(timed.transmitter_steps, plain.transmitter_steps);
  EXPECT_EQ(timed.receiver_steps, plain.receiver_steps);
  EXPECT_EQ(timed.transmitter_sends, plain.transmitter_sends);
  EXPECT_EQ(timed.receiver_sends, plain.receiver_sends);
  EXPECT_EQ(timed.dropped_packets, plain.dropped_packets);
  EXPECT_EQ(timed.faults, plain.faults);
  EXPECT_EQ(timed.quiescent, plain.quiescent);
  EXPECT_EQ(timed.metrics, plain.metrics);
}

/// The four layers the decorators time, each called at least once.
void expect_every_layer_timed(const HostTimer& timer) {
  for (const char* name : {"protocols.step", "protocols.deliver",
                           "sim.scheduler.next_gap", "channel.policy_choose"}) {
    EXPECT_GT(layer_named(timer, name).calls, 0u) << name;
  }
}

protocols::ProtocolConfig config_for(ProtocolKind kind) {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.input = core::make_random_input(24, 11);
  cfg.k = protocols::alphabet_for(kind, 4, cfg.input.size());
  return cfg;
}

sim::RunResult run_session(ProtocolKind kind, const core::Environment& env, HostTimer* timer) {
  const protocols::ProtocolConfig cfg = config_for(kind);
  sim::SimConfig sim_config;
  sim_config.params = cfg.params;
  sim_config.host_timer = timer;
  return core::make_session(kind, cfg, env, std::move(sim_config))->run();
}

TEST(HostTimer, CountsCallsPerLayerAndRegistersEachNameOnce) {
  HostTimer timer;
  const HostTimer::LayerId a = timer.layer("a");
  const HostTimer::LayerId b = timer.layer("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(timer.layer("a"), a);
  for (int i = 0; i < 3; ++i) {
    const HostTimer::Scope scope{timer, a};
  }
  { const HostTimer::Scope scope{timer, b}; }
  ASSERT_EQ(timer.layers().size(), 2u);
  EXPECT_EQ(timer.layers()[a].calls, 3u);
  EXPECT_EQ(timer.layers()[b].calls, 1u);
  EXPECT_EQ(timer.layers()[a].nested_calls, 0u);
}

TEST(HostTimer, NestedCallsCountOnTheirDirectParentOnly) {
  HostTimer timer;
  const HostTimer::LayerId outer = timer.layer("outer");
  const HostTimer::LayerId middle = timer.layer("middle");
  const HostTimer::LayerId inner = timer.layer("inner");
  {
    const HostTimer::Scope o{timer, outer};
    {
      const HostTimer::Scope m{timer, middle};
      const HostTimer::Scope i{timer, inner};
    }
    { const HostTimer::Scope i{timer, inner}; }
  }
  const std::vector<obs::LayerTotal>& layers = timer.layers();
  EXPECT_EQ(layers[outer].nested_calls, 2u);  // middle and the second inner
  EXPECT_EQ(layers[middle].nested_calls, 1u);
  EXPECT_EQ(layers[inner].nested_calls, 0u);
  EXPECT_EQ(layers[inner].calls, 2u);
  // A child's interval lies inside its parent's.
  EXPECT_LE(layers[outer].nested_ns, layers[outer].raw_ns);
  EXPECT_LE(layers[middle].nested_ns, layers[middle].raw_ns);
}

TEST(HostTimer, CalibratesItsOwnCost) {
  const HostTimer timer;
  EXPECT_GT(timer.cost().pair_ns, 0.0);
  EXPECT_GE(timer.cost().self_ns, 0.0);
  EXPECT_TRUE(timer.layers().empty());  // calibration leaves no layer behind
}

TEST(HostTimer, LayersTimersAndResidualSumToTheWallTimeExactly) {
  HostTimer timer;
  const std::uint64_t start = host_now_ns();
  const sim::RunResult run = run_session(ProtocolKind::Gamma, core::Environment::worst_case(),
                                         &timer);
  const std::uint64_t wall = host_now_ns() - start;
  ASSERT_TRUE(run.quiescent);

  const obs::Attribution a = timer.attribute(wall);
  ASSERT_EQ(a.layers.size(), 4u);
  std::int64_t sum = a.timer_ns + a.residual_ns;
  std::uint64_t calls = 0;
  for (const obs::Attribution::Row& row : a.layers) {
    sum += row.net_ns;
    calls += row.calls;
  }
  EXPECT_EQ(sum, static_cast<std::int64_t>(wall));
  EXPECT_EQ(a.timed_calls, calls);
  // One call per event: every deliver() is a delivery and every step() a
  // local step, but for the one step() that finds γ's transmitter stopped
  // after its last ack (the receiver can always idle).
  const std::uint64_t local_steps = run.transmitter_steps + run.receiver_steps;
  const std::uint64_t deliveries = layer_named(timer, "protocols.deliver").calls;
  const std::uint64_t steps = layer_named(timer, "protocols.step").calls;
  EXPECT_EQ(deliveries, run.metrics.counters.data_recvs + run.metrics.counters.ack_recvs);
  EXPECT_EQ(steps, local_steps + 1);
  EXPECT_EQ(steps + deliveries, run.event_count + 1);
  EXPECT_EQ(layer_named(timer, "channel.policy_choose").calls,
            run.transmitter_sends + run.receiver_sends);
}

TEST(HostTiming, DecoratedSessionsEqualUndecorated) {
  // Gate: every protocol in every environment kind runs identically with the
  // decorators installed; the recorder only reads the clock.
  const core::Environment envs[] = {core::Environment::worst_case(),
                                    core::Environment::adversarial_fast(),
                                    core::Environment::randomized(0),
                                    core::Environment::randomized(1),
                                    core::Environment::randomized(2)};
  for (const ProtocolKind kind : protocols::kAllProtocolKinds) {
    for (const core::Environment& env : envs) {
      SCOPED_TRACE(std::string{protocols::to_string(kind)} + " env seed " +
                   std::to_string(env.seed));
      HostTimer timer;
      expect_same_run(run_session(kind, env, &timer), run_session(kind, env, nullptr));
      expect_every_layer_timed(timer);
    }
  }
}

TEST(HostTiming, DriftingAndEstimatedRunsEqualUndecorated) {
  const auto run = [](ProtocolKind kind, const core::DriftSpec& drift, bool estimator,
                      HostTimer* timer) {
    protocols::ProtocolConfig cfg = config_for(kind);
    cfg.input = core::make_random_input(256, 3);
    return est::run_estimated(kind, cfg, core::Environment::worst_case(), drift, estimator, {},
                              {.max_events = 1'000'000, .host_timer = timer});
  };
  const core::DriftSpec drift = core::DriftSpec::parse("0:9,250:4,600:7");
  for (const bool estimator : {false, true}) {
    SCOPED_TRACE(estimator ? "estimator run" : "drift run");
    const ProtocolKind kind = estimator ? ProtocolKind::Gamma : ProtocolKind::Beta;
    const core::DriftSpec& spec = estimator ? core::DriftSpec{} : drift;
    HostTimer timer;
    const est::EstimatedRun timed = run(kind, spec, estimator, &timer);
    const est::EstimatedRun plain = run(kind, spec, estimator, nullptr);
    expect_same_run(timed.run.result, plain.run.result);
    EXPECT_EQ(timed.run.output_correct, plain.run.output_correct);
    EXPECT_EQ(timed.gauges, plain.gauges);
    expect_every_layer_timed(timer);
  }
}

}  // namespace
}  // namespace rstp
