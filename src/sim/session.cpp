#include "rstp/sim/session.h"

#include "rstp/protocols/alpha.h"
#include "rstp/protocols/altbit.h"
#include "rstp/protocols/beta.h"
#include "rstp/protocols/gamma.h"
#include "rstp/protocols/gamma_windowed.h"
#include "rstp/protocols/indexed.h"
#include "rstp/protocols/strawman.h"

namespace rstp::sim {

template <class T, class R, class S>
RunResult Session::run_on() {
  BasicSimulator<T, R, S> simulator{
      static_cast<T&>(*transmitter_), static_cast<R&>(*receiver_), channel_,
      static_cast<S&>(*transmitter_sched_), static_cast<S&>(*receiver_sched_), std::move(config_)};
  simulator.reserve_output(input_bits_);
  return simulator.run();
}

RunResult Session::run() {
  using namespace protocols;
  RSTP_CHECK(!ran_, "Session::run may be called once");
  ran_ = true;
  if (typed_.has_value()) {
    switch (*typed_) {
      case ProtocolKind::Alpha:
        return run_on<AlphaTransmitter, AlphaReceiver>();
      case ProtocolKind::Beta:
        return run_on<BetaTransmitter, BetaReceiver>();
      case ProtocolKind::Gamma:
        return run_on<GammaTransmitter, GammaReceiver>();
      case ProtocolKind::AltBit:
        return run_on<AltBitTransmitter, AltBitReceiver>();
      case ProtocolKind::Strawman:
        return run_on<StrawmanTransmitter, StrawmanReceiver>();
      case ProtocolKind::Indexed:
        return run_on<IndexedTransmitter, IndexedReceiver>();
      case ProtocolKind::WindowedGamma:
        return run_on<WindowedGammaTransmitter, WindowedGammaReceiver>();
    }
  }
  return run_on<ioa::Automaton, ioa::Automaton, StepScheduler>();
}

}  // namespace rstp::sim
