#include <algorithm>

#include "rstp/core/effort.h"
#include "rstp/protocols/base.h"

namespace rstp::core {

ioa::ExplorerResult explore_transfer(protocols::ProtocolKind kind,
                                     const protocols::ProtocolConfig& config) {
  const auto instance = protocols::make_protocol(kind, config);
  ioa::ExplorerConfig explorer_config;
  explorer_config.d = config.params.d.ticks();
  const auto& input = config.input;
  const auto prefix = [&input](const ioa::Automaton&, const ioa::Automaton& r) {
    const auto& out = dynamic_cast<const protocols::ReceiverBase&>(r).output();
    return out.size() <= input.size() && std::equal(out.begin(), out.end(), input.begin());
  };
  const auto complete = [&input](const ioa::Automaton&, const ioa::Automaton& r) {
    return dynamic_cast<const protocols::ReceiverBase&>(r).output() == input;
  };
  ioa::Explorer explorer{*instance.transmitter, *instance.receiver, explorer_config, prefix,
                         complete};
  return explorer.run();
}

}  // namespace rstp::core
