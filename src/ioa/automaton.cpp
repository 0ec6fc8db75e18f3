#include "rstp/ioa/automaton.h"

#include "rstp/obs/run_metrics.h"

namespace rstp::ioa {

const obs::CounterSource* Automaton::counter_source() const {
  return dynamic_cast<const obs::CounterSource*>(this);
}

std::optional<Action> step_local(Automaton& a) {
  std::optional<Action> action = a.enabled_local();
  if (action.has_value()) {
    a.apply(*action);
  }
  return action;
}

}  // namespace rstp::ioa
