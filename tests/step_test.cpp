// Automaton::step() and deliver() against the compositions they fuse, and
// clone() against the automaton it copies.
//
// Every protocol automaton takes its transitions through one template,
// protocols::Process (protocols/base.h), whose step() takes the enabled
// action and reports it with the quiescence after it. The default
// Automaton::step composes enabled_local(), apply() and quiescent().
// Replaying the deliveries of a real run, one copy of each automaton steps
// by its own step() and a clone by the default composition; after every
// event both must agree with each other and with the run. deliver() is
// checked the same way against the default composition of accepts_input(),
// apply() and quiescent(). A clone taken at several points of a run must
// equal its original, stay put while the original moves on, and equal it
// again once it takes the same events.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/core/effort.h"
#include "rstp/protocols/factory.h"

namespace rstp {
namespace {

using ioa::Action;
using ioa::ActionKind;
using ioa::Actor;
using ioa::Packet;
using protocols::ProtocolKind;

protocols::ProtocolConfig config_for(ProtocolKind kind) {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 6);
  cfg.input = core::make_random_input(24, 11);
  cfg.k = protocols::alphabet_for(kind, 4, cfg.input.size());
  return cfg;
}

/// Local actions that are not `enabled`: an internal action no protocol
/// has, the enabled send or write with its payload changed, and a packet
/// this automaton does not accept as input.
std::vector<Action> not_enabled(const ioa::Automaton& a, const std::optional<Action>& enabled) {
  std::vector<Action> actions{Action::internal(0xFFFF)};
  if (enabled.has_value() && enabled->kind == ActionKind::Send) {
    Packet p = enabled->packet;
    ++p.payload;
    actions.push_back(Action::send(p));
  }
  if (enabled.has_value() && enabled->kind == ActionKind::Write) {
    actions.push_back(Action::write(static_cast<ioa::Bit>(enabled->message ^ 1u)));
  }
  for (const Packet p : {Packet::to_receiver(0), Packet::to_transmitter(0)}) {
    if (!a.accepts_input(Action::recv(p))) actions.push_back(Action::recv(p));
  }
  return actions;
}

/// apply() of each action that is not enabled fails the base's check and
/// leaves the automaton as it was.
void expect_rejects_actions_not_enabled(ioa::Automaton& a) {
  const std::string before = a.snapshot();
  for (const Action& action : not_enabled(a, a.enabled_local())) {
    EXPECT_THROW(a.apply(action), ContractViolation) << a.name() << " took " << action;
    EXPECT_EQ(a.snapshot(), before) << a.name() << " after " << action;
  }
}

void expect_step_matches_composition(ProtocolKind kind, const core::Environment& env) {
  const protocols::ProtocolConfig cfg = config_for(kind);
  const core::ProtocolRun run = core::run_protocol(kind, cfg, env);
  ASSERT_TRUE(run.result.quiescent);
  ASSERT_FALSE(run.result.trace.empty());

  protocols::ProtocolInstance instance = protocols::make_protocol(kind, cfg);
  // [0] steps by its own step(), [1] by the default composition.
  const std::array<std::array<std::unique_ptr<ioa::Automaton>, 2>, 2> procs{{
      {instance.transmitter->clone(), instance.transmitter->clone()},
      {instance.receiver->clone(), instance.receiver->clone()},
  }};
  std::size_t local_steps = 0;
  for (const ioa::TimedEvent& event : run.result.trace.events()) {
    SCOPED_TRACE("event " + std::to_string(event.seq));
    if (event.actor == Actor::Channel) {
      const auto dest = static_cast<std::size_t>(event.action.packet.destination());
      for (const auto& a : procs[dest]) a->apply(event.action);
    } else {
      const auto& [fused, composed] = procs[static_cast<std::size_t>(event.actor)];
      expect_rejects_actions_not_enabled(*fused);
      ioa::LocalStep by_step;
      ioa::LocalStep by_composition;
      ASSERT_TRUE(fused->step(by_step));
      ASSERT_TRUE(composed->ioa::Automaton::step(by_composition));
      EXPECT_EQ(by_step.action, event.action);
      EXPECT_EQ(by_composition.action, event.action);
      EXPECT_EQ(by_step.quiescent, by_composition.quiescent);
      EXPECT_EQ(by_step.quiescent, fused->quiescent());
      ++local_steps;
    }
    for (const auto& pair : procs) {
      EXPECT_EQ(pair[0]->snapshot(), pair[1]->snapshot());
      EXPECT_EQ(pair[0]->quiescent(), pair[1]->quiescent());
    }
  }
  EXPECT_EQ(local_steps, run.result.transmitter_steps + run.result.receiver_steps);

  // A stopped automaton's step() returns false and changes nothing, `out`
  // included.
  for (const auto& pair : procs) {
    for (const auto& a : pair) {
      if (a->enabled_local().has_value()) continue;
      const std::string before = a->snapshot();
      ioa::LocalStep out{Action::internal(0xFFFF), true};
      EXPECT_FALSE(a->step(out)) << a->name();
      EXPECT_EQ(out.action, Action::internal(0xFFFF));
      EXPECT_TRUE(out.quiescent);
      EXPECT_EQ(a->snapshot(), before);
      expect_rejects_actions_not_enabled(*a);
    }
  }
}

/// deliver() of the packet each process does not take fails the base's
/// direction check, and the default composition its accepts_input() check;
/// both leave the automaton as it was.
void expect_rejects_wrong_direction(ioa::Automaton& a, ioa::ProcessId self) {
  const Packet wrong = self == ioa::ProcessId::Receiver ? Packet::to_transmitter(0)
                                                        : Packet::to_receiver(0);
  const std::string before = a.snapshot();
  EXPECT_THROW(a.deliver(wrong), ContractViolation) << a.name();
  EXPECT_THROW(a.ioa::Automaton::deliver(wrong), ContractViolation) << a.name() << " (default)";
  EXPECT_EQ(a.snapshot(), before) << a.name();
}

void expect_deliver_matches_composition(ProtocolKind kind, const core::Environment& env) {
  const protocols::ProtocolConfig cfg = config_for(kind);
  const core::ProtocolRun run = core::run_protocol(kind, cfg, env);
  ASSERT_TRUE(run.result.quiescent);

  protocols::ProtocolInstance instance = protocols::make_protocol(kind, cfg);
  // [0] takes inputs by its own deliver(), [1] by the default composition.
  const std::array<std::array<std::unique_ptr<ioa::Automaton>, 2>, 2> procs{{
      {instance.transmitter->clone(), instance.transmitter->clone()},
      {instance.receiver->clone(), instance.receiver->clone()},
  }};
  std::size_t deliveries = 0;
  for (const ioa::TimedEvent& event : run.result.trace.events()) {
    SCOPED_TRACE("event " + std::to_string(event.seq));
    if (event.actor == Actor::Channel) {
      const ioa::ProcessId dest = event.action.packet.destination();
      const auto& [fused, composed] = procs[static_cast<std::size_t>(dest)];
      expect_rejects_wrong_direction(*fused, dest);
      const bool by_deliver = fused->deliver(event.action.packet);
      const bool by_composition = composed->ioa::Automaton::deliver(event.action.packet);
      EXPECT_EQ(by_deliver, by_composition);
      EXPECT_EQ(by_deliver, fused->quiescent());
      ++deliveries;
    } else {
      for (const auto& a : procs[static_cast<std::size_t>(event.actor)]) {
        ioa::LocalStep taken;
        ASSERT_TRUE(a->step(taken));
        EXPECT_EQ(taken.action, event.action);
      }
    }
    for (const auto& pair : procs) {
      EXPECT_EQ(pair[0]->snapshot(), pair[1]->snapshot());
      EXPECT_EQ(pair[0]->quiescent(), pair[1]->quiescent());
    }
  }
  EXPECT_EQ(deliveries, run.result.metrics.counters.data_recvs +
                            run.result.metrics.counters.ack_recvs);
  for (const ioa::ProcessId id : {ioa::ProcessId::Transmitter, ioa::ProcessId::Receiver}) {
    for (const auto& a : procs[static_cast<std::size_t>(id)]) expect_rejects_wrong_direction(*a, id);
  }
}

/// The state a clone must carry: snapshot(), quiescent() and enabled_local().
struct Observed {
  std::string snapshot;
  bool quiescent = false;
  std::optional<Action> enabled;

  explicit Observed(const ioa::Automaton& a)
      : snapshot(a.snapshot()), quiescent(a.quiescent()), enabled(a.enabled_local()) {}
  friend bool operator==(const Observed&, const Observed&) = default;
};

void expect_clones_are_independent_copies(ProtocolKind kind, const core::Environment& env) {
  const protocols::ProtocolConfig cfg = config_for(kind);
  const core::ProtocolRun run = core::run_protocol(kind, cfg, env);
  ASSERT_TRUE(run.result.quiescent);
  const std::vector<ioa::TimedEvent>& events = run.result.trace.events();
  ASSERT_GT(events.size(), 8u);

  protocols::ProtocolInstance instance = protocols::make_protocol(kind, cfg);
  const std::array<ioa::Automaton*, 2> originals{instance.transmitter.get(),
                                                 instance.receiver.get()};
  // Takes events [from, to) of the run on `procs`, each on its own process.
  const auto take = [&](const std::array<ioa::Automaton*, 2>& procs, std::size_t from,
                        std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const ioa::TimedEvent& event = events[i];
      const auto id = event.actor == Actor::Channel
                          ? static_cast<std::size_t>(event.action.packet.destination())
                          : static_cast<std::size_t>(event.actor);
      procs[id]->apply(event.action);
    }
  };
  // Clone at the start, at each quarter of the run and at its end; between
  // two points the originals take the events first, then the clones.
  const std::size_t n = events.size();
  const std::array<std::size_t, 6> points{0, n / 4, n / 2, 3 * n / 4, n, n};
  for (std::size_t p = 0; p + 1 < points.size(); ++p) {
    SCOPED_TRACE("clone at event " + std::to_string(points[p]));
    const std::array<std::unique_ptr<ioa::Automaton>, 2> clones{originals[0]->clone(),
                                                                originals[1]->clone()};
    const std::array<ioa::Automaton*, 2> copies{clones[0].get(), clones[1].get()};
    std::vector<Observed> at_clone;
    for (std::size_t i = 0; i < 2; ++i) {
      at_clone.emplace_back(*originals[i]);
      EXPECT_EQ(Observed{*copies[i]}, at_clone[i]) << originals[i]->name();
      EXPECT_EQ(copies[i]->name(), originals[i]->name());
    }
    take(originals, points[p], points[p + 1]);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(Observed{*copies[i]}, at_clone[i]) << copies[i]->name() << " moved";
    }
    take(copies, points[p], points[p + 1]);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(Observed{*copies[i]}, Observed{*originals[i]}) << copies[i]->name();
    }
  }
}

TEST(Automaton, StepMatchesEnabledThenApply) {
  for (const ProtocolKind kind : protocols::kAllProtocolKinds) {
    for (const core::Environment& env :
         {core::Environment::worst_case(), core::Environment::randomized(3)}) {
      SCOPED_TRACE(std::string{protocols::to_string(kind)} + " env seed " +
                   std::to_string(env.seed));
      expect_step_matches_composition(kind, env);
    }
  }
}

TEST(Automaton, DeliverMatchesAcceptsInputThenApply) {
  for (const ProtocolKind kind : protocols::kAllProtocolKinds) {
    for (const core::Environment& env :
         {core::Environment::worst_case(), core::Environment::randomized(3)}) {
      SCOPED_TRACE(std::string{protocols::to_string(kind)} + " env seed " +
                   std::to_string(env.seed));
      expect_deliver_matches_composition(kind, env);
    }
  }
}

TEST(Automaton, CloneIsAnIndependentCopyAtEveryPointOfARun) {
  for (const ProtocolKind kind : protocols::kAllProtocolKinds) {
    for (const core::Environment& env :
         {core::Environment::worst_case(), core::Environment::randomized(3)}) {
      SCOPED_TRACE(std::string{protocols::to_string(kind)} + " env seed " +
                   std::to_string(env.seed));
      expect_clones_are_independent_copies(kind, env);
    }
  }
}

}  // namespace
}  // namespace rstp
