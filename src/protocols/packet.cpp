#include "rstp/protocols/base.h"

#include "rstp/common/check.h"

namespace rstp::protocols {

void ProtocolConfig::validate() const {
  params.validate();
  RSTP_CHECK_GE(k, 2u, "packet alphabet must have at least two symbols");
  if (block_size_override.has_value()) {
    RSTP_CHECK_GE(*block_size_override, 1u, "block size override must be positive");
  }
  if (wait_steps_override.has_value()) {
    RSTP_CHECK_GE(*wait_steps_override, 1u, "wait steps override must be positive");
  }
  for (ioa::Bit b : input) {
    RSTP_CHECK(b == 0 || b == 1, "input sequence must be binary");
  }
}

}  // namespace rstp::protocols
