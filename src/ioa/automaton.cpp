#include "rstp/ioa/automaton.h"

#include "rstp/common/check.h"
#include "rstp/obs/run_metrics.h"

namespace rstp::ioa {

const obs::CounterSource* Automaton::counter_source() const {
  return dynamic_cast<const obs::CounterSource*>(this);
}

bool Automaton::step(LocalStep& out) {
  const std::optional<Action> action = enabled_local();
  if (!action.has_value()) return false;
  apply(*action);
  out = LocalStep{*action, quiescent()};
  return true;
}

bool Automaton::deliver(const Packet& packet) {
  const Action recv = Action::recv(packet);
  RSTP_CHECK(accepts_input(recv), "delivered packet not an input of its destination");
  apply(recv);
  return quiescent();
}

}  // namespace rstp::ioa
