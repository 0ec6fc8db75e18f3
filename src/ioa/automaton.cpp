#include "rstp/ioa/automaton.h"

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

}  // namespace rstp::ioa
