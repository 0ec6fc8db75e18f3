// Timed-trace (de)serialization.
//
// A stable line-oriented text format so executions can be saved, diffed,
// replayed through the verifier offline, or produced by external tools:
//
//   # any line starting with '#' is a comment
//   <seq> <time> <actor> send  <dir> <payload>
//   <seq> <time> <actor> recv  <dir> <payload>
//   <seq> <time> <actor> write <bit>
//   <seq> <time> <actor> internal <id> [name]
//
// where <actor> ∈ {t, r, c} and <dir> ∈ {tr, rt}. parse_trace rejects
// malformed lines (a missing or trailing token, a number that is negative
// where unsigned or outside its field's range) and non-monotone sequences
// with rstp::ModelError naming the line (these are data errors, not caller
// bugs).
#pragma once

#include <iosfwd>
#include <string>

#include "rstp/ioa/trace.h"

namespace rstp::ioa {

/// Writes the trace in the documented format.
void write_trace(std::ostream& os, const TimedTrace& trace);

/// Renders the trace to a string.
[[nodiscard]] std::string trace_to_string(const TimedTrace& trace);

/// Parses a trace; inverse of write_trace. Throws rstp::ModelError on
/// malformed input. Internal action names are preserved only as far as the
/// static names the library knows; unknown names round-trip as empty.
[[nodiscard]] TimedTrace parse_trace(std::istream& is);
[[nodiscard]] TimedTrace parse_trace_string(const std::string& text);

}  // namespace rstp::ioa
