#include "rstp/sim/simulator.h"

#include <sstream>

#include "rstp/sim/simulator_impl.h"

namespace rstp::sim {

void throw_out_of_law(Duration value, const core::TimingParams& law, bool first) {
  std::ostringstream os;
  if (first) {
    os << "scheduler first offset " << value << " outside [0, c2=" << law.c2 << "]";
  } else {
    os << "scheduler gap " << value << " outside [c1=" << law.c1 << ", c2=" << law.c2 << "]";
  }
  throw ModelError(os.str());
}

template class BasicSimulator<ioa::Automaton, ioa::Automaton, StepScheduler>;

}  // namespace rstp::sim
