#include "rstp/ioa/explorer.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "rstp/common/check.h"

namespace rstp::ioa {

namespace {

/// One in-flight packet with delivery slots relative to "now": the packet
/// may be delivered at any explored instant with 0 ≤ min_in ≤ offset ≤ max_in.
struct Flight {
  Packet packet{};
  std::int64_t min_in = 0;
  std::int64_t max_in = 0;
  /// Sent by the transmitter this instant: it reaches the receiver now, after
  /// every older packet, or stays in flight.
  bool fresh = false;

  friend auto operator<=>(const Flight&, const Flight&) = default;
};

/// Immutable parent-linked event history; prefixes are shared across the
/// search tree so counterexample capture is cheap.
struct EventChain {
  std::shared_ptr<const EventChain> parent;
  Actor actor = Actor::Channel;
  Action action{};
  std::uint64_t instant = 0;
};

std::shared_ptr<const EventChain> extend(std::shared_ptr<const EventChain> parent, Actor actor,
                                         const Action& action, std::uint64_t instant) {
  auto link = std::make_shared<EventChain>();
  link->parent = std::move(parent);
  link->actor = actor;
  link->action = action;
  link->instant = instant;
  return link;
}

TimedTrace chain_to_trace(const std::shared_ptr<const EventChain>& tail) {
  std::vector<const EventChain*> links;
  for (const EventChain* link = tail.get(); link != nullptr; link = link->parent.get()) {
    links.push_back(link);
  }
  TimedTrace trace;
  std::uint64_t seq = 0;
  for (auto it = links.rbegin(); it != links.rend(); ++it) {
    trace.append(TimedEvent{Time{static_cast<std::int64_t>((*it)->instant)}, (*it)->actor,
                            (*it)->action, seq++});
  }
  return trace;
}

/// Where an instant stands: at its start, taking deliveries to the
/// transmitter (whose step closes the stage), or taking deliveries to the
/// receiver (whose step closes the instant).
enum class Stage : std::uint8_t { Boundary, ToTransmitter, ToReceiver };

struct Node {
  Stage stage = Stage::Boundary;
  // Shared between a node and its successors until a move changes one.
  std::shared_ptr<const Automaton> t;
  std::shared_ptr<const Automaton> r;
  std::vector<Flight> flights;
  std::uint64_t depth = 0;
  std::uint64_t phase = 0;  // depth mod lcm(t_period, r_period)
  std::shared_ptr<const EventChain> history;

  [[nodiscard]] std::string key() const {
    std::ostringstream os;
    os << static_cast<int>(stage) << '\x1f' << phase << '\x1f' << t->snapshot() << '\x1f'
       << r->snapshot() << '\x1f';
    std::vector<Flight> sorted = flights;
    std::sort(sorted.begin(), sorted.end());
    for (const Flight& f : sorted) {
      os << static_cast<int>(f.packet.direction) << ',' << f.packet.payload << ',' << f.min_in
         << ',' << f.max_in << (f.fresh ? "*;" : ";");
    }
    return os.str();
  }

  /// Takes flights[i] out of flight and delivers it to its destination.
  void deliver(std::size_t i) {
    const Packet packet = flights[i].packet;
    flights.erase(flights.begin() + static_cast<std::ptrdiff_t>(i));
    std::shared_ptr<const Automaton>& side =
        packet.destination() == ProcessId::Transmitter ? t : r;
    std::unique_ptr<Automaton> changed = side->clone();
    changed->deliver(packet);
    side = std::move(changed);
    history = extend(history, Actor::Channel, Action::recv(packet), depth);
  }

  /// Steps `actor`'s automaton if `period` divides the phase; returns the
  /// packet it sent, if any.
  std::optional<Packet> step(Actor actor, std::int64_t period) {
    if (phase % static_cast<std::uint64_t>(period) != 0) return std::nullopt;
    std::shared_ptr<const Automaton>& side = actor == Actor::Transmitter ? t : r;
    std::unique_ptr<Automaton> changed = side->clone();
    LocalStep a;
    if (!changed->step(a)) return std::nullopt;  // stopped: nothing changed
    side = std::move(changed);
    history = extend(history, actor, a.action, depth);
    if (a.action.kind != ActionKind::Send) return std::nullopt;
    return a.action.packet;
  }
};

}  // namespace

Explorer::Explorer(const Automaton& transmitter, const Automaton& receiver, ExplorerConfig config,
                   Predicate safety, Predicate complete)
    : transmitter_(transmitter),
      receiver_(receiver),
      config_(config),
      safety_(std::move(safety)),
      complete_(std::move(complete)) {
  RSTP_CHECK_GE(config_.d, 0, "delay bound must be non-negative");
  RSTP_CHECK_GE(config_.t_period, 1, "transmitter period must be positive");
  RSTP_CHECK_GE(config_.r_period, 1, "receiver period must be positive");
}

ExplorerResult Explorer::run() {
  ExplorerResult result;
  std::unordered_set<std::string> visited;
  std::vector<Node> stack;
  const std::uint64_t phase_modulus = static_cast<std::uint64_t>(
      std::lcm(config_.t_period, config_.r_period));
  stack.push_back(Node{Stage::Boundary, transmitter_.clone(), receiver_.clone(), {}, 0, 0, {}});

  const auto violation = [&](const char* what, const Node& node) {
    if (result.first_violation.empty()) {
      result.first_violation = what + node.key();
      result.counterexample = chain_to_trace(node.history);
    }
  };
  // Safety is checked after each process step: after the transmitter's
  // here, and after the receiver's when the next boundary is popped.
  const auto check_safety = [&](const Node& node) {
    if (result.safety_held && safety_ && !safety_(*node.t, *node.r)) {
      result.safety_held = false;
      violation("safety violated at: ", node);
    }
  };

  while (!stack.empty()) {
    Node node = std::move(stack.back());
    stack.pop_back();
    if (!visited.insert(node.key()).second) continue;
    const bool boundary = node.stage == Stage::Boundary;
    if (boundary) {
      ++result.distinct_states;
      check_safety(node);
    }
    if (visited.size() >= config_.max_states) {
      result.exhausted_caps = true;
      continue;
    }

    // Terminal: both automata done and nothing in flight.
    if (boundary && node.flights.empty() &&
        (!node.t->enabled_local().has_value() || node.t->quiescent()) &&
        (!node.r->enabled_local().has_value() || node.r->quiescent())) {
      ++result.terminal_states;
      if (complete_ && !complete_(*node.t, *node.r)) {
        result.all_terminals_complete = false;
        violation("incomplete terminal: ", node);
      }
      continue;
    }

    // Deliver any one older packet whose window includes now. One at its
    // deadline must arrive before the stage closes (discrete delivery
    // semantics, matching the simulator's deliveries-before-steps rule).
    const bool to_receiver = node.stage == Stage::ToReceiver;
    const ProcessId destination = to_receiver ? ProcessId::Receiver : ProcessId::Transmitter;
    bool forced = false;
    for (std::size_t i = 0; i < node.flights.size(); ++i) {
      const Flight& f = node.flights[i];
      if (f.fresh || f.packet.destination() != destination || f.min_in > 0) continue;
      forced = forced || f.max_in <= 0;
      Node next = node;
      next.stage = to_receiver ? Stage::ToReceiver : Stage::ToTransmitter;
      next.deliver(i);
      ++result.transitions;
      stack.push_back(std::move(next));
    }
    if (forced) continue;

    if (!to_receiver) {
      // The transmitter steps; a packet it sends is fresh, and may reach
      // the receiver at this same instant (zero delay).
      Node next = node;
      next.stage = Stage::ToReceiver;
      if (const auto sent = next.step(Actor::Transmitter, config_.t_period)) {
        next.flights.push_back(Flight{*sent, 0, config_.d, true});
      }
      check_safety(next);
      ++result.transitions;
      stack.push_back(std::move(next));
      continue;
    }

    // The receiver's stage closes with the fresh packet left in flight or
    // delivered last (under the send-order tie rule it cannot overtake an
    // older same-instant arrival); then the receiver steps, the slots shift
    // and the next instant begins.
    const auto fresh = std::find_if(node.flights.begin(), node.flights.end(),
                                    [](const Flight& f) { return f.fresh; });
    for (const bool take_fresh : {false, true}) {
      if (take_fresh && fresh == node.flights.end()) break;
      Node next = node;
      if (take_fresh) next.deliver(static_cast<std::size_t>(fresh - node.flights.begin()));
      if (const auto sent = next.step(Actor::Receiver, config_.r_period)) {
        // An ack sent now cannot reach the transmitter before the
        // transmitter's own step this instant: earliest effect-slot 1,
        // physical deadline d instants out.
        next.flights.push_back(Flight{*sent, 1, config_.d, false});
      }
      for (Flight& f : next.flights) {
        f.min_in = std::max<std::int64_t>(0, f.min_in - 1);
        f.max_in -= 1;
        f.fresh = false;
        RSTP_CHECK_GE(f.max_in, 0, "packet missed its delivery deadline");
      }
      next.stage = Stage::Boundary;
      ++next.depth;
      next.phase = (node.phase + 1) % phase_modulus;
      ++result.transitions;
      stack.push_back(std::move(next));
    }
  }
  return result;
}

}  // namespace rstp::ioa
