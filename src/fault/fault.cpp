#include "rstp/fault/fault.h"

#include <ostream>

#include "rstp/common/check.h"
#include "rstp/common/rng.h"

namespace rstp::fault {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::Drop:
      return "drop";
    case FaultKind::Duplicate:
      return "duplicate";
    case FaultKind::Late:
      return "late";
    case FaultKind::Corrupt:
      return "corrupt";
  }
  return "?";
}

std::optional<FaultKind> fault_kind_from_string(std::string_view name) {
  for (const FaultKind kind :
       {FaultKind::Drop, FaultKind::Duplicate, FaultKind::Late, FaultKind::Corrupt}) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::ostream& operator<<(std::ostream& os, FaultKind kind) { return os << to_string(kind); }

std::ostream& operator<<(std::ostream& os, const FaultEvent& e) {
  os << e.kind << " send_seq=" << e.send_seq << " at=" << e.at << " " << e.original;
  if (e.kind == FaultKind::Corrupt) os << " -> " << e.injected;
  if (e.kind == FaultKind::Late) os << " late_by=" << e.late_by;
  return os;
}

void FaultRates::validate() const {
  // Summed in 64 bits so four 32-bit rates cannot wrap below the limit.
  RSTP_CHECK_LE(std::uint64_t{drop_pm} + duplicate_pm + late_pm + corrupt_pm, 1000u,
                "fault rates are per-mille and must sum to <= 1000");
  RSTP_CHECK_GE(max_duplicates, 1u, "duplicate faults need at least one extra copy");
  RSTP_CHECK_GE(max_late.ticks(), 1, "late faults need at least one tick of overshoot");
  RSTP_CHECK_GE(corrupt_space, 2u, "corruption needs at least two candidate payloads");
}

SeededFaultInjector::SeededFaultInjector(std::uint64_t seed, FaultRates rates,
                                         std::vector<PinnedFault> pins)
    : seed_(seed), rates_(rates), pins_(std::move(pins)) {
  rates_.validate();
}

FaultDecision SeededFaultInjector::decide(const ioa::Packet& packet, Time /*sent_at*/,
                                          Time /*deadline*/, std::uint64_t send_seq) {
  // A per-packet SplitMix64 stream keyed on (seed, send_seq): the decision
  // never depends on how many draws earlier packets consumed.
  std::uint64_t state = seed_ ^ (0x9E3779B97F4A7C15ULL * (send_seq + 1));
  const auto draw = [&state]() { return splitmix64(state); };
  const auto corrupted = [&](std::uint32_t arg) {
    // Replacement payload in [0, corrupt_space), never equal to the original.
    std::uint32_t value = arg % rates_.corrupt_space;
    if (value == packet.payload) value = (value + 1) % rates_.corrupt_space;
    return value;
  };

  FaultDecision decision;
  for (const PinnedFault& pin : pins_) {
    if (pin.send_seq != send_seq) continue;
    switch (pin.kind) {
      case FaultKind::Drop:
        decision.drop = true;
        break;
      case FaultKind::Duplicate:
        decision.duplicates = pin.arg == 0 ? 1 : pin.arg;
        break;
      case FaultKind::Late:
        decision.late_by = Duration{pin.arg == 0 ? 1 : static_cast<std::int64_t>(pin.arg)};
        break;
      case FaultKind::Corrupt:
        decision.corrupt_payload = corrupted(pin.arg);
        break;
    }
    return decision;
  }

  if (!rates_.any()) return decision;
  // One roll in [0, 1000) selects at most one fault class (rates sum <= 1000).
  const std::uint64_t roll = draw() % 1000;
  std::uint64_t bound = rates_.drop_pm;
  if (roll < bound) {
    decision.drop = true;
    return decision;
  }
  bound += rates_.duplicate_pm;
  if (roll < bound) {
    decision.duplicates =
        1 + static_cast<std::uint32_t>(draw() % rates_.max_duplicates);
    return decision;
  }
  bound += rates_.late_pm;
  if (roll < bound) {
    decision.late_by =
        Duration{1 + static_cast<std::int64_t>(draw() % static_cast<std::uint64_t>(
                                                   rates_.max_late.ticks()))};
    return decision;
  }
  bound += rates_.corrupt_pm;
  if (roll < bound) {
    decision.corrupt_payload = corrupted(static_cast<std::uint32_t>(draw()));
  }
  return decision;
}

}  // namespace rstp::fault
