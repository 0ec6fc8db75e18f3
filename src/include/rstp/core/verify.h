// Trace verifier: decides membership in good(A) and checks the problem's
// correctness conditions (paper §4).
//
// The verifier independently re-checks everything the simulator is supposed
// to guarantee — it shares no state with the simulator, so it doubles as an
// oracle in property tests and as a validator for traces produced by other
// means (e.g. the explorer or hand-written negative tests):
//
//   Σ(A_t, A_r): for each process, the gap between consecutive local events
//                lies in [c1, c2] (and optionally the first step is ≤ c2).
//   Δ(C(P)):     there is a bijection between send and recv events matching
//                equal packets with 0 ≤ recv − send ≤ d. (Greedy earliest-
//                send matching is exact here: all candidates carry identical
//                payloads, so an exchange argument reduces any valid
//                bijection to the greedy one.)
//   Safety:      Y is a prefix of X at every point of the execution.
//   Liveness:    Y = X at the end (when `require_complete`), and no packet
//                is left undelivered (when `require_drained`).
//
// Every check needs only the events in execution order plus state that
// grows with the packets in flight, so there is one implementation,
// TraceChecker, fed one event at a time. It is fed online by arming it as a
// run's sim::SimObserver (no trace is recorded; api::Link verifies this
// way), or from a recorded trace by verify_trace.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "rstp/core/params.h"
#include "rstp/fault/fault.h"
#include "rstp/ioa/trace.h"
#include "rstp/sim/observer.h"

namespace rstp::core {

enum class ViolationKind : std::uint8_t {
  StepGapTooSmall,   ///< consecutive local events closer than c1
  StepGapTooLarge,   ///< consecutive local events farther than c2
  FirstStepTooLate,  ///< first local event after c2 (optional check)
  RecvWithoutSend,   ///< recv with no earlier unmatched matching send
  DeliveryTooEarly,  ///< matched recv − send is below d1 (generalized model)
  DeliveryTooLate,   ///< matched recv − send exceeds d
  UndeliveredPacket, ///< send never matched by a recv (optional check)
  OutputNotPrefix,   ///< a write made Y stop being a prefix of X
  OutputIncomplete,  ///< Y ≠ X at the end of the trace (optional check)
};

std::ostream& operator<<(std::ostream& os, ViolationKind kind);

struct Violation {
  ViolationKind kind{};
  std::uint64_t event_seq = 0;  ///< seq of the offending event (0 if global)
  std::string detail;
  Time time{};  ///< time of the offending event (zero if global)

  friend bool operator==(const Violation&, const Violation&) = default;
};

std::ostream& operator<<(std::ostream& os, const Violation& v);

struct VerifyOptions {
  bool require_complete = true;  ///< require Y == X at the end
  bool require_drained = true;   ///< require every send matched by a recv
  bool check_first_step = false; ///< require each process's first local event ≤ c2

  /// §7 generalization hooks. When set, each process's step-gap law comes
  /// from its own parameters (instead of the shared ones), and deliveries
  /// must additionally take at least `min_delay` (the window's d1).
  std::optional<TimingParams> transmitter_params;
  std::optional<TimingParams> receiver_params;
  Duration min_delay{0};
};

struct VerifyResult {
  std::vector<Violation> violations;
  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// True iff no violation of `kind` is present.
  [[nodiscard]] bool clean_of(ViolationKind kind) const;
};

std::ostream& operator<<(std::ostream& os, const VerifyResult& r);

/// The verifier, fed one event at a time in execution order. Its state is
/// per process the time of the last local event, per (direction, payload)
/// the FIFO of unmatched sends, and the number of writes so far, so its
/// memory grows with the packets in flight, not with the execution.
///
/// Also a sim::SimObserver: arm it as a run's observer (SimConfig::observer,
/// or run_protocol's `observer`) to verify the run without recording it.
class TraceChecker final : public sim::SimObserver {
 public:
  /// Checks against the model `params` and the input sequence X. `input` is
  /// not copied and must outlive the checker. Throws rstp::ContractViolation
  /// on invalid `params`.
  TraceChecker(const TimingParams& params, std::span<const ioa::Bit> input,
               const VerifyOptions& options = {});

  /// Checks the next event. As TimedTrace::append, times must be
  /// non-decreasing and seq strictly increasing (rstp::ContractViolation
  /// otherwise).
  void add(const ioa::TimedEvent& event);

  void on_event(const ioa::TimedEvent& event, const sim::EventContext&) override { add(event); }

  /// The verdict on the events added so far. Violations come in a fixed
  /// order: A_t's step-gap law, A_r's, then the bijection and prefix
  /// violations in event order, then the undelivered sends (by packet, then
  /// in send order), then the incomplete output.
  [[nodiscard]] VerifyResult finish() const;

 private:
  /// One process's Σ(A_t, A_r) state and its gap-law violations.
  struct Process {
    TimingParams params;
    std::string_view who;
    std::optional<Time> last_step;
    std::vector<Violation> violations;
  };
  /// An unmatched send.
  struct PendingSend {
    Time time;
    std::uint64_t seq = 0;
  };

  void check_step(Process& process, const ioa::TimedEvent& e);

  TimingParams params_;
  std::span<const ioa::Bit> input_;
  VerifyOptions options_;
  Process transmitter_;
  Process receiver_;
  std::map<ioa::Packet, std::deque<PendingSend>> outstanding_;
  std::vector<Violation> in_order_;  ///< bijection and prefix violations
  std::size_t written_ = 0;
  // The previous event's time and seq, for the append-order check.
  bool started_ = false;
  Time last_time_{};
  std::uint64_t last_seq_ = 0;
};

/// Verifies `trace` against the model `params` and the input sequence X:
/// feeds every event to a TraceChecker and returns its verdict.
[[nodiscard]] VerifyResult verify_trace(const ioa::TimedTrace& trace, const TimingParams& params,
                                        std::span<const ioa::Bit> input,
                                        const VerifyOptions& options = {});

/// Verdict of a run whose channel may have injected faults: the raw verdict
/// plus a classification of every violation as *excused* (an injected fault
/// accounts for it) or *unexcused* (a protocol bug even granting the faults).
struct FaultVerifyReport {
  VerifyResult raw;                    ///< every violation, fault-blind
  std::vector<Violation> unexcused;    ///< violations no injected fault explains
  std::size_t excused = 0;             ///< count of excused violations

  /// "No protocol bug": every violation (if any) traces back to a fault.
  [[nodiscard]] bool ok() const { return unexcused.empty(); }
};

std::ostream& operator<<(std::ostream& os, const FaultVerifyReport& r);

/// Takes the checker's verdict and excuses exactly the violations the fault
/// log explains, reading each violation's time from the verdict (`faults`
/// must be the channel's log for the execution the checker was fed, in send
/// order):
///
///   DeliveryTooLate, RecvWithoutSend, UndeliveredPacket
///                      ← any fault at or before the violating event. The
///                        verifier's greedy same-payload matching means one
///                        drop/duplicate/corruption shifts every later match
///                        of that payload, so each fault kind can surface as
///                        any of the three.
///   OutputNotPrefix    ← any fault at or before the write (safety under
///                        faults: a wrong write is excused only when the
///                        channel misbehaved first — property P6)
///   OutputIncomplete   ← any fault at all (liveness is never owed on a
///                        faulted channel)
///
/// Step-gap violations (Σ(A_t, A_r)) and DeliveryTooEarly are never excused:
/// no channel fault can produce them (sends are appended in trace order, so
/// matched delays are never negative even under duplication).
[[nodiscard]] FaultVerifyReport verify_with_faults(const TraceChecker& checker,
                                                   std::span<const fault::FaultEvent> faults);

}  // namespace rstp::core
