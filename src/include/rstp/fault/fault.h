// Fault injection: channel behaviors deliberately *outside* good(A).
//
// The paper's guarantees hold only for executions whose channel delivers
// every packet exactly once within d. This module produces the complement:
// drops, bounded duplication, delivery after the deadline, and payload
// corruption. Every injected fault is recorded as a structured FaultEvent so
// downstream consumers (the simulator, core::verify_with_faults, the
// fuzzer) can distinguish "the model was violated, and here is where" from
// "the protocol is buggy":
//
//   * a run with fault events is excused from liveness (Y may be incomplete)
//     and from the channel-law checks the faults explain;
//   * safety violations (Y not a prefix of X) are excused only when a fault
//     event precedes them — a wrong write with a clean channel prefix is
//     always a protocol bug (property P6 in tests/property_test.cpp);
//   * a protocol that throws ContractViolation after a fault event is a
//     *fail-stop* outcome, not a bug: several receivers/transmitters check
//     model assumptions (duplicate-free acks, in-alphabet symbols) and the
//     check firing means the fault was detected.
//
// The injector sits inside channel::Channel (see Channel::set_fault_injector)
// where it intercepts each send before the delivery policy runs. Decisions
// are a pure function of (seed, send_seq), never of the draw history, so a
// faulted execution is bit-reproducible from its FuzzCase alone.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "rstp/common/time.h"
#include "rstp/ioa/action.h"

namespace rstp::fault {

enum class FaultKind : std::uint8_t {
  Drop,       ///< packet silently lost (violates the lossless law)
  Duplicate,  ///< extra copies delivered (violates the bijection)
  Late,       ///< delivered after sent_at + d (violates Δ(C(P)))
  Corrupt,    ///< payload replaced in flight (recv ≠ send)
};

[[nodiscard]] std::string_view to_string(FaultKind kind);
/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<FaultKind> fault_kind_from_string(std::string_view name);
std::ostream& operator<<(std::ostream& os, FaultKind kind);

/// One injected fault, recorded by the channel at the send it hit. For
/// Duplicate faults one event is logged per extra copy.
struct FaultEvent {
  FaultKind kind{};
  std::uint64_t send_seq = 0;  ///< channel send index the fault applied to
  Time at{};                   ///< the send instant
  ioa::Packet original{};      ///< packet as handed to the channel
  ioa::Packet injected{};      ///< packet as enqueued (== original unless Corrupt)
  Duration late_by{0};         ///< Late: delivery overshoot past the deadline

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

std::ostream& operator<<(std::ostream& os, const FaultEvent& e);

/// What an injector wants done to one send. Fields compose in the order
/// corrupt → drop → late/duplicate, though seeded injectors emit at most one
/// kind per packet (keeping per-mille rates interpretable).
struct FaultDecision {
  bool drop = false;
  std::uint32_t duplicates = 0;  ///< extra copies beyond the original
  Duration late_by{0};           ///< > 0 schedules delivery at deadline + late_by
  std::optional<std::uint32_t> corrupt_payload;

  [[nodiscard]] bool benign() const {
    return !drop && duplicates == 0 && late_by.ticks() == 0 && !corrupt_payload.has_value();
  }
};

/// Strategy deciding the fault (if any) for each send. Implementations must
/// be deterministic functions of their construction and the call arguments.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Decides the fate of the `send_seq`-th send. `deadline` = sent_at + d.
  [[nodiscard]] virtual FaultDecision decide(const ioa::Packet& packet, Time sent_at,
                                             Time deadline, std::uint64_t send_seq) = 0;
};

/// Per-mille fault probabilities plus shape bounds. Integral rates keep the
/// decision arithmetic exact (no floating point in the reproducibility path).
/// The four rates must sum to ≤ 1000: each send suffers at most one fault
/// class, drawn from one roll.
struct FaultRates {
  std::uint32_t drop_pm = 0;
  std::uint32_t duplicate_pm = 0;
  std::uint32_t late_pm = 0;
  std::uint32_t corrupt_pm = 0;
  std::uint32_t max_duplicates = 2;  ///< extra copies per Duplicate fault, >= 1
  Duration max_late{4};              ///< max overshoot past the deadline, >= 1 tick
  /// Corrupted payloads are drawn from [0, corrupt_space), excluding the
  /// original value. Callers set this to the protocol's alphabet k so the
  /// corruption stays in-alphabet (out-of-alphabet bytes are a transport
  /// concern, not a scheduling one; receivers fail-stop on them anyway).
  std::uint32_t corrupt_space = 4;

  [[nodiscard]] bool any() const {
    return drop_pm + duplicate_pm + late_pm + corrupt_pm > 0;
  }
  /// Throws rstp::ContractViolation on out-of-range fields.
  void validate() const;

  friend bool operator==(const FaultRates&, const FaultRates&) = default;
};

/// Forces a specific fault at one send index, regardless of the rates; used
/// by tests and by fuzzer mutations to target single packets. `arg` is
/// kind-specific: extra copies (Duplicate), overshoot ticks (Late), or the
/// replacement payload (Corrupt); ignored for Drop.
struct PinnedFault {
  std::uint64_t send_seq = 0;
  FaultKind kind{};
  std::uint32_t arg = 0;

  friend bool operator==(const PinnedFault&, const PinnedFault&) = default;
};

/// The standard injector: pinned faults first, then seeded per-mille rates.
/// The decision for send_seq is derived from (seed, send_seq) alone — two
/// injectors with equal construction agree packet-by-packet even if one run
/// sends more packets than the other.
class SeededFaultInjector final : public FaultInjector {
 public:
  SeededFaultInjector(std::uint64_t seed, FaultRates rates,
                      std::vector<PinnedFault> pins = {});

  [[nodiscard]] FaultDecision decide(const ioa::Packet& packet, Time sent_at, Time deadline,
                                     std::uint64_t send_seq) override;

 private:
  std::uint64_t seed_;
  FaultRates rates_;
  std::vector<PinnedFault> pins_;
};

}  // namespace rstp::fault
