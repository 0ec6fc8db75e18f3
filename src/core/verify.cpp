#include "rstp/core/verify.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "rstp/common/check.h"

namespace rstp::core {

namespace {

using ioa::ActionKind;
using ioa::Actor;
using ioa::TimedEvent;

void add_violation(std::vector<Violation>& violations, ViolationKind kind, std::uint64_t seq,
                   Time time, std::string detail) {
  violations.push_back(Violation{kind, seq, std::move(detail), time});
}

}  // namespace

std::ostream& operator<<(std::ostream& os, ViolationKind kind) {
  switch (kind) {
    case ViolationKind::StepGapTooSmall:
      return os << "StepGapTooSmall";
    case ViolationKind::StepGapTooLarge:
      return os << "StepGapTooLarge";
    case ViolationKind::FirstStepTooLate:
      return os << "FirstStepTooLate";
    case ViolationKind::RecvWithoutSend:
      return os << "RecvWithoutSend";
    case ViolationKind::DeliveryTooEarly:
      return os << "DeliveryTooEarly";
    case ViolationKind::DeliveryTooLate:
      return os << "DeliveryTooLate";
    case ViolationKind::UndeliveredPacket:
      return os << "UndeliveredPacket";
    case ViolationKind::OutputNotPrefix:
      return os << "OutputNotPrefix";
    case ViolationKind::OutputIncomplete:
      return os << "OutputIncomplete";
  }
  return os << "?";
}

std::ostream& operator<<(std::ostream& os, const Violation& v) {
  return os << v.kind << " (event #" << v.event_seq << "): " << v.detail;
}

bool VerifyResult::clean_of(ViolationKind kind) const {
  for (const Violation& v : violations) {
    if (v.kind == kind) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const VerifyResult& r) {
  if (r.ok()) return os << "trace OK";
  os << r.violations.size() << " violation(s):\n";
  for (const Violation& v : r.violations) {
    os << "  " << v << '\n';
  }
  return os;
}

TraceChecker::TraceChecker(const TimingParams& params, std::span<const ioa::Bit> input,
                           const VerifyOptions& options)
    : params_(params),
      input_(input),
      options_(options),
      transmitter_{options.transmitter_params.value_or(params), "A_t", {}, {}},
      receiver_{options.receiver_params.value_or(params), "A_r", {}, {}} {
  params_.validate();
}

void TraceChecker::check_step(Process& process, const TimedEvent& e) {
  // --- Σ(A_t, A_r): per-process step-gap law --------------------------------
  const TimingParams& law = process.params;
  if (!process.last_step.has_value()) {
    if (options_.check_first_step && e.time > Time::zero() + law.c2) {
      std::ostringstream os;
      os << process.who << " first local event at " << e.time << " > c2=" << law.c2;
      add_violation(process.violations, ViolationKind::FirstStepTooLate, e.seq, e.time, os.str());
    }
  } else {
    const Duration gap = e.time - *process.last_step;
    if (gap < law.c1) {
      std::ostringstream os;
      os << process.who << " step gap " << gap << " < c1=" << law.c1 << " before event #"
         << e.seq;
      add_violation(process.violations, ViolationKind::StepGapTooSmall, e.seq, e.time, os.str());
    } else if (gap > law.c2) {
      std::ostringstream os;
      os << process.who << " step gap " << gap << " > c2=" << law.c2 << " before event #"
         << e.seq;
      add_violation(process.violations, ViolationKind::StepGapTooLarge, e.seq, e.time, os.str());
    }
  }
  process.last_step = e.time;
}

void TraceChecker::add(const TimedEvent& e) {
  if (started_) {
    RSTP_CHECK_LE(last_time_, e.time, "trace times must be non-decreasing");
    RSTP_CHECK_LT(last_seq_, e.seq, "trace seq numbers must increase");
  }
  started_ = true;
  last_time_ = e.time;
  last_seq_ = e.seq;

  if (e.actor == Actor::Transmitter) {
    check_step(transmitter_, e);
  } else if (e.actor == Actor::Receiver) {
    check_step(receiver_, e);
  }

  switch (e.action.kind) {
    case ActionKind::Send:
      // --- Δ(C(P)): outstanding sends per packet, greedy earliest match ----
      outstanding_[e.action.packet].push_back(PendingSend{e.time, e.seq});
      break;
    case ActionKind::Recv: {
      const auto it = outstanding_.find(e.action.packet);
      if (it == outstanding_.end() || it->second.empty()) {
        std::ostringstream os;
        os << "recv of " << e.action.packet << " at " << e.time
           << " has no outstanding matching send";
        add_violation(in_order_, ViolationKind::RecvWithoutSend, e.seq, e.time, os.str());
        break;
      }
      const Time sent = it->second.front().time;
      it->second.pop_front();
      const Duration delay = e.time - sent;
      if (delay > params_.d) {
        std::ostringstream os;
        os << e.action.packet << " sent " << sent << " received " << e.time << " (delay "
           << delay << " > d=" << params_.d << ")";
        add_violation(in_order_, ViolationKind::DeliveryTooLate, e.seq, e.time, os.str());
      } else if (delay < options_.min_delay) {
        std::ostringstream os;
        os << e.action.packet << " sent " << sent << " received " << e.time << " (delay "
           << delay << " < d1=" << options_.min_delay << ")";
        add_violation(in_order_, ViolationKind::DeliveryTooEarly, e.seq, e.time, os.str());
      }
      break;
    }
    case ActionKind::Write: {
      // --- Safety: Y must stay a prefix of X ---------------------------------
      if (written_ >= input_.size() || input_[written_] != e.action.message) {
        std::ostringstream os;
        os << "write #" << written_ + 1 << " value " << static_cast<int>(e.action.message)
           << " breaks the prefix property";
        add_violation(in_order_, ViolationKind::OutputNotPrefix, e.seq, e.time, os.str());
      }
      ++written_;
      break;
    }
    case ActionKind::Internal:
      break;
  }
}

VerifyResult TraceChecker::finish() const {
  VerifyResult result;
  std::vector<Violation>& out = result.violations;
  out.insert(out.end(), transmitter_.violations.begin(), transmitter_.violations.end());
  out.insert(out.end(), receiver_.violations.begin(), receiver_.violations.end());
  out.insert(out.end(), in_order_.begin(), in_order_.end());

  if (options_.require_drained) {
    for (const auto& [packet, sends] : outstanding_) {
      for (const PendingSend& send : sends) {
        std::ostringstream os;
        os << packet << " sent at " << send.time << " was never delivered";
        add_violation(out, ViolationKind::UndeliveredPacket, send.seq, send.time, os.str());
      }
    }
  }

  if (options_.require_complete && written_ != input_.size()) {
    std::ostringstream os;
    os << "output has " << written_ << " messages, input has " << input_.size();
    add_violation(out, ViolationKind::OutputIncomplete, 0, Time::zero(), os.str());
  }
  return result;
}

VerifyResult verify_trace(const ioa::TimedTrace& trace, const TimingParams& params,
                          std::span<const ioa::Bit> input, const VerifyOptions& options) {
  TraceChecker checker{params, input, options};
  for (const TimedEvent& e : trace.events()) checker.add(e);
  return checker.finish();
}

std::ostream& operator<<(std::ostream& os, const FaultVerifyReport& r) {
  if (r.ok()) {
    os << "trace OK under faults (" << r.excused << " excused violation(s))";
    return os;
  }
  os << r.unexcused.size() << " unexcused violation(s) (" << r.excused << " excused):\n";
  for (const Violation& v : r.unexcused) {
    os << "  " << v << '\n';
  }
  return os;
}

FaultVerifyReport verify_with_faults(const TraceChecker& checker,
                                     std::span<const fault::FaultEvent> faults) {
  FaultVerifyReport report;
  report.raw = checker.finish();
  if (report.raw.ok()) return report;

  // A violation is excused by a fault at or before the violating event.
  // Fault times are send instants, so a fault's downstream consequences (the
  // recv, the wrong write) never precede it.
  const auto fault_at_or_before = [&](Time when) {
    return std::any_of(faults.begin(), faults.end(),
                       [when](const fault::FaultEvent& f) { return f.at <= when; });
  };
  for (const Violation& v : report.raw.violations) {
    bool excused = false;
    switch (v.kind) {
      case ViolationKind::StepGapTooSmall:
      case ViolationKind::StepGapTooLarge:
      case ViolationKind::FirstStepTooLate:
      case ViolationKind::DeliveryTooEarly:
        // Scheduler laws and early delivery cannot result from any injected
        // channel fault.
        break;
      case ViolationKind::DeliveryTooLate:
      case ViolationKind::RecvWithoutSend:
      case ViolationKind::UndeliveredPacket:
        // Bijection-layer violations. Any fault kind can produce any of the
        // three: the verifier matches recvs greedily against the earliest
        // outstanding same-payload send, so a single drop (or corrupt, or
        // duplicate) shifts every later same-payload match — a dropped send
        // absorbs its retransmission's recv and surfaces as DeliveryTooLate,
        // the cascade's tail as RecvWithoutSend or UndeliveredPacket.
        // Attribution finer than "some fault happened first" would require
        // re-deriving the channel's true bijection, which the fault log does
        // not (and should not) pin down.
      case ViolationKind::OutputNotPrefix:
        // Safety under faults: a wrong write is excused only when the channel
        // misbehaved first (property P6).
        excused = fault_at_or_before(v.time);
        break;
      case ViolationKind::OutputIncomplete:
        excused = !faults.empty();
        break;
    }
    if (excused) {
      ++report.excused;
    } else {
      report.unexcused.push_back(v);
    }
  }
  return report;
}

}  // namespace rstp::core
