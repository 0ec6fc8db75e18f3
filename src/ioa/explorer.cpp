#include "rstp/ioa/explorer.h"

#include <algorithm>
#include <numeric>
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

struct Node {
  std::unique_ptr<Automaton> t;
  std::unique_ptr<Automaton> r;
  std::vector<Flight> flights;
  std::uint64_t depth = 0;
  std::uint64_t phase = 0;  // depth mod lcm(t_period, r_period)
  std::shared_ptr<const EventChain> history;

  [[nodiscard]] Node clone() const {
    Node copy;
    copy.t = t->clone();
    copy.r = r->clone();
    copy.flights = flights;
    copy.depth = depth;
    copy.phase = phase;
    copy.history = history;
    return copy;
  }

  [[nodiscard]] std::string key() const {
    std::ostringstream os;
    os << phase << '\x1f' << t->snapshot() << '\x1f' << r->snapshot() << '\x1f';
    std::vector<Flight> sorted = flights;
    std::sort(sorted.begin(), sorted.end());
    for (const Flight& f : sorted) {
      os << static_cast<int>(f.packet.direction) << ',' << f.packet.payload << ',' << f.min_in
         << ',' << f.max_in << ';';
    }
    return os.str();
  }
};

/// Enumerates every (subset ⊇ forced, permutation) of `eligible` indices and
/// invokes `visit` with the ordered index sequence. `forced` is a subset of
/// `eligible`.
void for_each_delivery_order(const std::vector<std::size_t>& eligible,
                             const std::vector<bool>& forced,
                             const std::function<void(const std::vector<std::size_t>&)>& visit) {
  const std::size_t e = eligible.size();
  RSTP_CHECK_LE(e, std::size_t{20}, "delivery branching too wide");
  for (std::uint32_t mask = 0; mask < (1u << e); ++mask) {
    bool forced_ok = true;
    for (std::size_t i = 0; i < e; ++i) {
      if (forced[i] && ((mask >> i) & 1u) == 0) {
        forced_ok = false;
        break;
      }
    }
    if (!forced_ok) continue;
    std::vector<std::size_t> chosen;
    for (std::size_t i = 0; i < e; ++i) {
      if ((mask >> i) & 1u) chosen.push_back(eligible[i]);
    }
    std::sort(chosen.begin(), chosen.end());
    do {
      visit(chosen);
    } while (std::next_permutation(chosen.begin(), chosen.end()));
  }
}

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

  {
    Node root;
    root.t = transmitter_.clone();
    root.r = receiver_.clone();
    stack.push_back(std::move(root));
  }

  const auto check_safety = [&](const Node& node) {
    if (result.safety_held && safety_ && !safety_(*node.t, *node.r)) {
      result.safety_held = false;
      if (result.first_violation.empty()) {
        result.first_violation = "safety violated at: " + node.key();
        result.counterexample = chain_to_trace(node.history);
      }
    }
  };

  while (!stack.empty()) {
    Node node = std::move(stack.back());
    stack.pop_back();

    const std::string key = node.key();
    if (!visited.insert(key).second) continue;
    if (visited.size() > result.distinct_states) result.distinct_states = visited.size();

    check_safety(node);

    if (visited.size() >= config_.max_states || node.depth >= config_.max_depth ||
        node.flights.size() > config_.max_in_flight) {
      result.exhausted_caps = true;
      continue;
    }

    // Terminal: both automata done and nothing in flight.
    const bool t_done = !node.t->enabled_local().has_value() || node.t->quiescent();
    const bool r_done = !node.r->enabled_local().has_value() || node.r->quiescent();
    if (t_done && r_done && node.flights.empty()) {
      ++result.terminal_states;
      if (complete_ && !complete_(*node.t, *node.r)) {
        result.all_terminals_complete = false;
        if (result.first_violation.empty()) {
          result.first_violation = "incomplete terminal: " + key;
          result.counterexample = chain_to_trace(node.history);
        }
      }
      continue;
    }

    // ---- Advance one instant with all delivery branchings -----------------
    // Phase 1: deliveries to the transmitter (before its step).
    std::vector<std::size_t> t_eligible;
    std::vector<bool> t_forced;
    for (std::size_t i = 0; i < node.flights.size(); ++i) {
      const Flight& f = node.flights[i];
      if (f.packet.destination() == ProcessId::Transmitter && f.min_in <= 0) {
        t_eligible.push_back(i);
        // Discrete delivery semantics (matching the simulator's
        // deliveries-before-steps rule): a packet takes effect before the
        // destination's step at some instant ≤ its deadline.
        t_forced.push_back(f.max_in <= 0);
      }
    }

    for_each_delivery_order(t_eligible, t_forced, [&](const std::vector<std::size_t>& t_order) {
      Node mid = node.clone();
      const std::uint64_t instant = node.depth;
      // Deliver the chosen acks, then take the transmitter's step.
      std::vector<bool> consumed(mid.flights.size(), false);
      for (std::size_t idx : t_order) {
        const Packet& packet = mid.flights[idx].packet;
        mid.t->deliver(packet);
        mid.history = extend(mid.history, Actor::Channel, Action::recv(packet), instant);
        consumed[idx] = true;
      }
      std::vector<Packet> t_sent;
      const bool t_steps_now = node.phase % static_cast<std::uint64_t>(config_.t_period) == 0;
      if (t_steps_now) {
        if (LocalStep a; mid.t->step(a)) {
          mid.history = extend(mid.history, Actor::Transmitter, a.action, instant);
          if (a.action.kind == ActionKind::Send) t_sent.push_back(a.action.packet);
        }
      }
      check_safety(mid);

      // Phase 2: deliveries to the receiver — pending packets plus the
      // transmitter's just-sent one (zero-delay same-instant arrival).
      // Older packets may arrive at any point of this instant's window and
      // can be permuted freely; a packet sent THIS instant arrives at
      // exactly this instant, so under the send-order tie rule it can only
      // come after every older same-instant arrival.
      std::vector<Flight> flights2;
      for (std::size_t i = 0; i < mid.flights.size(); ++i) {
        if (!consumed[i]) flights2.push_back(mid.flights[i]);
      }
      const std::size_t fresh_begin = flights2.size();
      for (const Packet& p : t_sent) {
        flights2.push_back(Flight{p, 0, config_.d});
      }
      mid.flights = std::move(flights2);

      std::vector<std::size_t> r_eligible;
      std::vector<bool> r_forced;
      for (std::size_t i = 0; i < fresh_begin; ++i) {
        const Flight& f = mid.flights[i];
        if (f.packet.destination() == ProcessId::Receiver && f.min_in <= 0) {
          r_eligible.push_back(i);
          r_forced.push_back(f.max_in <= 0);
        }
      }
      const bool has_fresh = mid.flights.size() > fresh_begin &&
                             mid.flights[fresh_begin].packet.destination() == ProcessId::Receiver;

      for_each_delivery_order(r_eligible, r_forced, [&](const std::vector<std::size_t>& r_older) {
        // Each older-packet order extends to (a) leave the fresh packet in
        // flight, or (b) deliver it now, strictly after the older ones.
        std::vector<std::vector<std::size_t>> orders;
        orders.push_back(r_older);
        if (has_fresh) {
          std::vector<std::size_t> with_fresh = r_older;
          with_fresh.push_back(fresh_begin);
          orders.push_back(std::move(with_fresh));
        }
        for (const std::vector<std::size_t>& r_order : orders) {
        Node next = mid.clone();
        std::vector<bool> consumed2(next.flights.size(), false);
        for (std::size_t idx : r_order) {
          const Packet& packet = next.flights[idx].packet;
          next.r->deliver(packet);
          next.history = extend(next.history, Actor::Channel, Action::recv(packet), instant);
          consumed2[idx] = true;
        }
        const bool r_steps_now =
            node.phase % static_cast<std::uint64_t>(config_.r_period) == 0;
        if (LocalStep a; r_steps_now && next.r->step(a)) {
          next.history = extend(next.history, Actor::Receiver, a.action, instant);
          if (a.action.kind == ActionKind::Send) {
            // An ack sent now cannot reach the transmitter before the
            // transmitter's own step this instant: earliest effect-slot 1,
            // physical deadline d instants out.
            next.flights.push_back(Flight{a.action.packet, 1, config_.d});
            consumed2.push_back(false);
          }
        }
        check_safety(next);

        // Advance to the next instant: drop consumed, shift slots by one.
        std::vector<Flight> remaining;
        for (std::size_t i = 0; i < next.flights.size(); ++i) {
          if (consumed2[i]) continue;
          Flight f = next.flights[i];
          f.min_in = std::max<std::int64_t>(0, f.min_in - 1);
          f.max_in -= 1;
          RSTP_CHECK_GE(f.max_in, 0, "packet missed its delivery deadline");
          remaining.push_back(f);
        }
        next.flights = std::move(remaining);
        next.depth = node.depth + 1;
        next.phase = (node.phase + 1) % phase_modulus;
        ++result.transitions;
        stack.push_back(std::move(next));
        }
      });
    });
  }

  result.distinct_states = visited.size();
  return result;
}

}  // namespace rstp::ioa
