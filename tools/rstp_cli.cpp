// rstp — command-line front end to the library. cli_flags.h lists every
// verb's arguments and flags; `rstp` with no arguments prints them.
//
//   bounds     every closed-form bound for the model (c1, c2, d, k)
//   run        a protocol end to end, verified online; the input is a literal
//              0/1 string of length >= 8, or else a length of seeded random bits
//   verify     a saved trace against good(A) and the expected output
//   explore    every schedule (c1 = c2 = 1) of a small instance
//   campaign   the golden campaign grid (--estimator: the estimator grid)
//   mega       N sessions of one cell, back to back per shard; one fold row
//   report     a metrics JSONL file as a table, or the diff of two (--fail-on
//              gates it; grammar in docs/OBSERVABILITY.md)
//   fuzz       coverage-guided schedule/fault fuzzing with minimized repros
//   adversary  a search for effort-maximizing channels; the gap to Thm 5.3/5.6
//   replay     re-execute a fuzz or adversary artifact, field by field
//
// Exit codes:
//   0  success, including a replay that reproduces a failing verdict
//   1  a verdict against: an incorrect or unverified run, a trace that does
//      not verify, a violation found, a replay that does not reproduce, a
//      fuzz failure, an adversary below the hand-coded floor; or an error
//   2  a usage error: a bad argument or flag value, an out-of-model value, or
//      a malformed trace, metrics file, --fail-on spec or artifact; also a
//      fuzz corpus that cannot be read, missing or malformed alike
//   3  a tripped --fail-on gate, or a result a cap cut short: an explore
//      search at its state cap, a run at its event cap with nothing wrong
//   4  a file that cannot be opened or written
#include <algorithm>
#include <iomanip>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli_flags.h"
#include "rstp/combinatorics/multiset_codec.h"
#include "rstp/common/check.h"
#include "rstp/common/parse.h"
#include "rstp/core/bounds.h"
#include "rstp/core/drift.h"
#include "rstp/core/effort.h"
#include "rstp/est/runner.h"
#include "rstp/core/trace_stats.h"
#include "rstp/core/verify.h"
#include "rstp/ioa/explorer.h"
#include "rstp/ioa/trace_io.h"
#include "rstp/obs/diff.h"
#include "rstp/obs/host_timer.h"
#include "rstp/obs/sinks.h"
#include "rstp/obs/trace.h"
#include "rstp/protocols/factory.h"
#include "rstp/protocols/gamma_windowed.h"
#include "rstp/protocols/strawman.h"
#include "rstp/sim/adversary.h"
#include "rstp/sim/campaign.h"
#include "rstp/sim/multi_session.h"
#include "rstp/sim/fuzz.h"

namespace {

using namespace rstp;
using protocols::ProtocolKind;

/// Prints the usage line of each verb in `verbs`, from its table; exit 2.
int usage(std::span<const cli::Verb> verbs = cli::kVerbs) {
  std::cerr << "usage:\n";
  for (const cli::Verb& verb : verbs) {
    std::cerr << "  rstp " << std::left << std::setw(9) << verb.name;
    if (!verb.positionals.empty()) std::cerr << ' ' << verb.positionals;
    for (const cli::Flag& flag : verb.flags) {
      if (flag.kind == cli::Kind::Unsupported) continue;
      const bool spaced = !flag.metavar.empty() && flag.kind != cli::Kind::Estimator;
      std::cerr << " [" << flag.name << (spaced ? " " : "") << flag.metavar << ']';
    }
    std::cerr << '\n';
  }
  return 2;
}

/// Reports a bad numeric token the way usage errors are reported: name the
/// argument, echo the offending token, exit 2.
int bad_number(std::string_view what, std::string_view token) {
  std::cerr << "invalid " << what << " '" << token << "': expected a decimal integer\n";
  return 2;
}

/// Parses c1, c2 and d from args[at], args[at + 1] and args[at + 2] and
/// checks them against the model, 0 < c1 <= c2 <= d; nullopt after naming
/// the first bad field (exit 2).
[[nodiscard]] std::optional<core::TimingParams> model_args(
    const std::vector<std::string_view>& args, std::size_t at) {
  constexpr std::string_view kFields[] = {"c1", "c2", "d"};
  std::int64_t value[3] = {};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto parsed = parse_number<std::int64_t>(args[at + i]);
    if (!parsed.has_value()) {
      (void)bad_number(kFields[i], args[at + i]);
      return std::nullopt;
    }
    value[i] = *parsed;
  }
  const std::size_t bad = value[0] < 1 ? 0 : value[1] < value[0] ? 1 : value[2] < value[1] ? 2 : 3;
  if (bad < 3) {
    std::cerr << "out-of-model " << kFields[bad] << " '" << args[at + bad]
              << "': the model needs 0 < c1 <= c2 <= d\n";
    return std::nullopt;
  }
  if (Duration{value[2]}.ceil_div(Duration{value[0]}) > core::TimingParams::kMaxSteps) {
    std::cerr << "out-of-model d '" << args[at + 2] << "': the model needs ceil(d/c1) <= "
              << core::TimingParams::kMaxSteps << '\n';
    return std::nullopt;
  }
  return core::TimingParams::make(value[0], value[1], value[2]);
}

/// Parses the alphabet size k and checks k >= 2; nullopt after reporting
/// (exit 2).
[[nodiscard]] std::optional<std::uint32_t> alphabet_arg(std::string_view token) {
  const auto k = parse_number<std::uint32_t>(token);
  if (!k.has_value()) {
    (void)bad_number("k", token);
  } else if (*k < 2) {
    std::cerr << "out-of-model k '" << token << "': the model needs k >= 2\n";
    return std::nullopt;
  }
  return k;
}

/// alphabet_arg for the commands that run protocols: also rejects a k past
/// the largest universe the multiset codec builds tables for.
[[nodiscard]] std::optional<std::uint32_t> codec_alphabet_arg(std::string_view token) {
  const auto k = alphabet_arg(token);
  constexpr std::uint32_t max_k = combinatorics::MultisetCodec::kMaxUniverse;
  if (k.has_value() && *k > max_k) {
    std::cerr << "out-of-range k '" << token << "': the codec builds tables for k <= " << max_k
              << "\n";
    return std::nullopt;
  }
  return k;
}

/// Checks a user alphabet `k` against what `kind` needs beyond k >= 2:
/// gammaw runs W = kDefaultWindow tag classes, so it needs k >= 2·W and W | k.
/// False after naming k (exit 2).
[[nodiscard]] bool protocol_accepts_k(protocols::ProtocolKind kind, std::uint32_t k) {
  constexpr std::uint32_t w = protocols::kDefaultWindow;
  if (kind != ProtocolKind::WindowedGamma || (k >= 2 * w && k % w == 0)) return true;
  std::cerr << "out-of-model k '" << k << "': gammaw needs k >= " << 2 * w
            << " and a multiple of its window " << w << "\n";
  return false;
}

/// Checks that the codec `kind` builds for `cfg` has tables within
/// MultisetCodec::kMaxTableBytes; false after naming `field`, the argument
/// that sets the block size, as `token` (exit 2).
[[nodiscard]] bool codec_tables_fit(protocols::ProtocolKind kind,
                                    const protocols::ProtocolConfig& cfg, std::string_view field,
                                    std::string_view token) {
  if (protocols::codec_tables_fit(kind, cfg)) return true;
  std::cerr << "out-of-range " << field << " '" << token << "': the " << protocols::to_string(kind)
            << " codec's tables for that block size would pass "
            << (combinatorics::MultisetCodec::kMaxTableBytes >> 20) << " MiB\n";
  return false;
}

/// The protocol named `name`; nullopt after reporting an unknown name.
[[nodiscard]] std::optional<protocols::ProtocolKind> protocol_arg(std::string_view name) {
  const auto kind = protocols::protocol_from_string(name);
  if (!kind.has_value()) std::cerr << "unknown protocol '" << name << "'\n";
  return kind;
}

/// Parses an `--estimator=margin` value. Empty optional (after the error
/// message naming the token) on a non-numeric or out-of-range margin.
[[nodiscard]] std::optional<double> parse_margin(std::string_view token) {
  const auto parsed = parse_number<double>(token);
  if (!parsed.has_value() || !(*parsed >= 0.0 && *parsed < 1.0)) {
    std::cerr << "invalid --estimator margin '" << token << "': expected a number in [0, 1)\n";
    return std::nullopt;
  }
  return parsed;
}

/// Checks the value a flag was given (nullopt: none) against its kind;
/// false after reporting (exit 2). Text and Path values are the verb's to read.
[[nodiscard]] bool check_flag(const cli::Verb& verb, const cli::Flag& flag,
                              const std::optional<std::string_view>& value) {
  const auto invalid = [&](std::string_view expected, std::string_view detail = "") {
    std::cerr << "invalid " << flag.name << " '" << *value << "': expected " << expected << detail
              << '\n';
    return false;
  };
  if (flag.kind == cli::Kind::Unsupported) {
    std::cerr << flag.name << " is not supported for " << verb.name << ": " << flag.metavar << '\n';
    return false;
  }
  if (flag.kind == cli::Kind::Switch) return !value.has_value() || invalid("no value");
  if (flag.kind == cli::Kind::Estimator) {
    return !value.has_value() || parse_margin(*value).has_value();
  }
  if (!value.has_value()) {
    std::cerr << "missing value for " << flag.name << '\n';
    return false;
  }
  switch (flag.kind) {
    case cli::Kind::Number: {
      const auto parsed = parse_number<std::uint64_t>(*value);
      if (!parsed.has_value() || *parsed > flag.max) {
        return invalid("a decimal integer",
                       flag.zero_is_hardware
                           ? " up to " + std::to_string(flag.max) + " (0 = hardware threads)"
                           : std::string{});
      }
      return *parsed >= flag.min || invalid("a positive integer");
    }
    case cli::Kind::Alphabet:
      return codec_alphabet_arg(*value).has_value();
    case cli::Kind::Choice: {
      std::string_view rest = flag.metavar;
      for (std::size_t bar = 0; bar != std::string_view::npos; rest.remove_prefix(bar + 1)) {
        bar = rest.find('|');
        if (rest.substr(0, bar) == *value) return true;
      }
      return invalid("one of ", flag.metavar);
    }
    default:
      return true;
  }
}

/// One verb's command line, checked against its table: the positional
/// arguments, and the last value each flag was given ("" for a switch).
struct Args {
  const cli::Verb& verb;
  std::vector<std::string_view> positional;
  std::vector<std::optional<std::string_view>> values;  ///< parallel to verb.flags

  [[nodiscard]] std::size_t index(std::string_view name) const {
    const auto flag = std::find_if(verb.flags.begin(), verb.flags.end(),
                                   [&](const cli::Flag& f) { return f.name == name; });
    RSTP_CHECK(flag != verb.flags.end(), "a flag missing from its verb's table");
    return static_cast<std::size_t>(flag - verb.flags.begin());
  }
  [[nodiscard]] bool has(std::string_view name) const { return values[index(name)].has_value(); }
  [[nodiscard]] std::string text(std::string_view name) const {
    return std::string{values[index(name)].value_or("")};
  }
  /// The flag's number, or `fallback` when it was not given.
  template <typename T>
  [[nodiscard]] T number(std::string_view name, T fallback) const {
    const std::size_t at = index(name);
    RSTP_CHECK(verb.flags[at].max <= std::numeric_limits<T>::max(),
               "a flag's range is wider than the field it sets");
    return values[at].has_value() ? static_cast<T>(*parse_number<std::uint64_t>(*values[at]))
                                  : fallback;
  }
};

/// Parses argv[2..] by the grammar of cli_flags.h against `verb`'s table;
/// nullopt after reporting the first error (exit 2).
[[nodiscard]] std::optional<Args> parse_args(const cli::Verb& verb, int argc, char** argv) {
  Args args{verb, {}, std::vector<std::optional<std::string_view>>(verb.flags.size())};
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with("--")) {
      args.positional.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const auto flag = std::find_if(verb.flags.begin(), verb.flags.end(),
                                   [&](const cli::Flag& f) { return f.name == arg.substr(0, eq); });
    if (flag == verb.flags.end()) {
      std::cerr << "unknown option '" << arg << "'\n";
      (void)usage({&verb, 1});
      return std::nullopt;
    }
    const bool bare = flag->kind == cli::Kind::Switch || flag->kind == cli::Kind::Estimator ||
                      flag->kind == cli::Kind::Unsupported;
    std::optional<std::string_view> value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (!bare && i + 1 < argc) {
      value = argv[++i];
    }
    if (!check_flag(verb, *flag, value)) return std::nullopt;
    // A bare --estimator after --estimator=margin keeps the margin.
    auto& slot = args.values[static_cast<std::size_t>(flag - verb.flags.begin())];
    slot = value.has_value() ? *value : slot.value_or("");
  }
  const std::size_t positionals = args.positional.size();
  if (positionals >= verb.min_positionals && positionals <= verb.max_positionals) return args;
  (void)usage({&verb, 1});
  return std::nullopt;
}

/// The margin of `--estimator=margin`; nullopt for a bare --estimator or none.
[[nodiscard]] std::optional<double> estimator_margin(const Args& args) {
  const std::string margin = args.text("--estimator");  // checked by parse_args
  return margin.empty() ? std::nullopt : parse_number<double>(margin);
}

/// Parses a `--drift` spec, turning a DriftParseError into the usual exit-2
/// style report naming the offending token.
[[nodiscard]] std::optional<core::DriftSpec> parse_drift(const std::string& token) {
  try {
    return core::DriftSpec::parse(token);
  } catch (const core::DriftParseError& e) {
    std::cerr << "bad --drift segment '" << e.token() << "': " << e.what() << "\n";
    return std::nullopt;
  }
}

/// The bits of a pure 0/1 string; nullopt when it has any other character.
[[nodiscard]] std::optional<std::vector<ioa::Bit>> bit_string(std::string_view text) {
  if (text.find_first_not_of("01") != std::string_view::npos) return std::nullopt;
  std::vector<ioa::Bit> bits(text.begin(), text.end());
  for (ioa::Bit& bit : bits) bit = static_cast<ioa::Bit>(bit - '0');
  return bits;
}

/// Parses the input argument: a pure 0/1 string of length ≥ 8 is a literal
/// bit sequence; anything else is a decimal length for a seeded random
/// input (so "64" is 64 random bits, "01100110" is those exact 8 bits).
/// std::nullopt when the token is neither.
std::optional<std::vector<ioa::Bit>> parse_input(std::string_view text, std::uint64_t seed) {
  if (text.size() >= 8) {
    if (auto bits = bit_string(text)) return bits;
  }
  const auto length = parse_number<std::uint32_t>(text);
  if (!length.has_value()) return std::nullopt;
  return core::make_random_input(*length, seed);
}

/// Reports a file that cannot be opened or written; returns exit code 4.
int cannot_open(std::string_view path) {
  std::cerr << "cannot open '" << path << "'\n";
  return 4;
}

/// Appends metric records to a JSONL file (append, so several runs can
/// accumulate into one report input). False when the file cannot be opened.
bool append_metrics_jsonl(const std::string& path,
                          const std::vector<obs::RunMetricsRecord>& records) {
  std::ofstream out{path, std::ios::app};
  if (!out) return false;
  for (const obs::RunMetricsRecord& record : records) {
    obs::write_run_metrics_jsonl(out, record);
  }
  return static_cast<bool>(out);
}

/// Writes a Chrome trace (--trace-out) and prints its summary line; returns
/// exit code 0, or 4 when the file cannot be opened.
int write_trace_out(const obs::trace::Tracer& tracer, const std::string& path) {
  std::ofstream out{path};
  if (!out) return cannot_open(path);
  tracer.write_chrome_json(out);
  const obs::trace::Summary summary = obs::trace::summarize(tracer);
  std::cout << "trace-out:  written to " << path << " (" << summary.model_spans << " spans, "
            << summary.flow_events << " flow events, " << summary.host_spans << " host spans, "
            << summary.dropped << " dropped, delay p50/p95/p99 " << summary.delay_p50 << '/'
            << summary.delay_p95 << '/' << summary.delay_p99 << " ticks)\n";
  return 0;
}

/// Prints the --timing table: one row per timed layer, the timers' own cost
/// and the simulator's residual, which sum to `wall_ns` exactly, then the
/// codec's block counts (encode time is inside protocols.step, decode time
/// inside protocols.deliver, and the tables' construction inside the residual).
void print_host_timing(const obs::HostTimer& timer, std::uint64_t wall_ns,
                       const obs::ProtocolCounters& counters) {
  const obs::Attribution a = timer.attribute(wall_ns);
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << "host timing (clock: "
     << to_string(host_clock_source()) << ", timer self " << timer.cost().self_ns
     << " ns, pair " << timer.cost().pair_ns << " ns):\n"
     << std::left << std::setw(26) << "layer" << std::right << std::setw(10) << "calls"
     << std::setw(14) << "net_us" << std::setw(10) << "mean_ns" << std::setw(8) << "share"
     << '\n';
  const auto row = [&](std::string_view name, std::uint64_t calls, std::int64_t ns) {
    const auto nsd = static_cast<double>(ns);
    os << std::left << std::setw(26) << name << std::right << std::setw(10);
    if (calls > 0) {
      os << calls << std::setprecision(3) << std::setw(14) << nsd / 1000.0
         << std::setprecision(1) << std::setw(10) << nsd / static_cast<double>(calls);
    } else {
      os << "" << std::setprecision(3) << std::setw(14) << nsd / 1000.0 << std::setw(10) << "";
    }
    os << std::setprecision(1) << std::setw(7)
       << (wall_ns == 0 ? 0.0 : 100.0 * nsd / static_cast<double>(wall_ns)) << "%\n";
  };
  for (const obs::Attribution::Row& layer : a.layers) row(layer.name, layer.calls, layer.net_ns);
  row("timer cost", a.timed_calls, a.timer_ns);
  row("simulator own (residual)", 0, a.residual_ns);
  row("wall time", 0, static_cast<std::int64_t>(wall_ns));
  os << "codec: " << counters.blocks_encoded << " blocks encoded, " << counters.blocks_decoded
     << " blocks decoded (encode time inside protocols.step, decode inside "
        "protocols.deliver)\n";
  std::cout << os.str();
}

int cmd_bounds(const Args& args) {
  const auto params = model_args(args.positional, 0);
  if (!params.has_value()) return 2;
  const auto k = alphabet_arg(args.positional[3]);
  if (!k.has_value()) return 2;
  // Checked before any BigUint work: the exact μ and ζ cost is quadratic in
  // min(k, ⌈d/c1⌉); the argument named is the one that sets it.
  const auto delta = static_cast<std::uint64_t>(params->delta1_wait());
  if (std::min<std::uint64_t>(*k, delta) > core::kMaxExactBoundsSize) {
    const bool k_sets_it = *k <= delta;
    std::cerr << "out-of-range " << (k_sets_it ? "k" : "d") << " '"
              << args.positional[k_sets_it ? 3 : 2]
              << "': bounds computes mu and zeta exactly only for min(k, ceil(d/c1)) <= "
              << core::kMaxExactBoundsSize << '\n';
    return 2;
  }
  std::cout << core::compute_bounds(*params, *k) << '\n';
  return 0;
}

int cmd_run(const Args& args) {
  const auto kind = protocol_arg(args.positional[0]);
  if (!kind.has_value()) return 2;
  const auto params = model_args(args.positional, 1);
  if (!params.has_value()) return 2;
  const auto k = codec_alphabet_arg(args.positional[4]);
  if (!k.has_value() || !protocol_accepts_k(*kind, *k)) return 2;
  protocols::ProtocolConfig cfg;
  cfg.params = *params;
  cfg.k = *k;
  if (!codec_tables_fit(*kind, cfg, "d", args.positional[3])) return 2;
  constexpr std::int64_t max_block = protocols::StrawmanTransmitter::kMaxBlock;
  if (*kind == ProtocolKind::Strawman && cfg.params.delta1_wait() > max_block) {
    std::cerr << "out-of-range d '" << args.positional[3]
              << "': strawman keeps a block of ceil(d/c1) packets in flight, at most "
              << max_block << '\n';
    return 2;
  }

  // Built after parsing, so --seed holds in whichever order the flags came.
  const std::uint64_t seed = args.number("--seed", std::uint64_t{1});
  const std::string env_name = args.text("--env");
  core::Environment env = env_name == "random"        ? core::Environment::randomized(seed)
                          : env_name == "adversarial" ? core::Environment::adversarial_fast()
                                                      : core::Environment::worst_case();
  if (env_name == "fast") {
    env.transmitter_sched = core::Environment::Sched::FastFixed;
    env.receiver_sched = core::Environment::Sched::FastFixed;
    env.delay = core::Environment::Delay::Zero;
  }
  env.seed = seed;
  const std::string trace_file = args.text("--trace");
  const std::string trace_out_file = args.text("--trace-out");
  const std::string metrics_file = args.text("--metrics-out");
  constexpr std::uint64_t kEventCap = 50'000'000;
  const bool want_stats = args.has("--stats");
  const bool want_timing = args.has("--timing");
  const bool want_estimator = args.has("--estimator");
  const double est_margin = estimator_margin(args).value_or(0.125);
  core::DriftSpec drift;
  if (args.has("--drift")) {
    const auto parsed = parse_drift(args.text("--drift"));
    if (!parsed.has_value()) return 2;
    drift = *parsed;
  }
  if (want_estimator && *kind != ProtocolKind::Beta && *kind != ProtocolKind::Gamma) {
    std::cerr << "--estimator supports only beta and gamma\n";
    return 2;
  }
  const auto input = parse_input(args.positional[5], seed);
  if (!input.has_value()) return bad_number("input length", args.positional[5]);
  cfg.input = *input;
  cfg.k = protocols::alphabet_for(*kind, cfg.k, cfg.input.size());

  std::optional<obs::trace::Tracer> tracer;
  std::optional<obs::trace::ModelRecorder> recorder;
  if (!trace_out_file.empty()) {
    tracer.emplace();
    recorder.emplace(*tracer);
  }
  std::optional<obs::HostTimer> timer;
  if (want_timing) timer.emplace(tracer.has_value() ? &*tracer : nullptr);
  // The verifier watches the run online; the trace is recorded only for the
  // outputs that read it.
  core::TraceChecker checker{cfg.params, cfg.input};
  sim::ObserverTee observers{recorder.has_value() ? &*recorder : nullptr, &checker};
  // run_estimated with no drift and the estimator off is exactly
  // core::run_protocol (same seed stream), so one call covers all modes.
  est::EstimatorConfig est_cfg;
  est_cfg.margin = est_margin;
  const std::uint64_t start_ns = host_now_ns();
  const est::EstimatedRun est_run = est::run_estimated(
      *kind, cfg, env, drift, want_estimator, est_cfg,
      {.max_events = kEventCap,
       .record_trace = want_stats || !trace_file.empty(),
       .observer = observers.armed(),
       .host_timer = timer.has_value() ? &*timer : nullptr});
  const std::uint64_t wall_ns = host_now_ns() - start_ns;
  const core::ProtocolRun& run = est_run.run;
  std::cout << "protocol:   " << protocols::to_string(*kind) << "\n"
            << "model:      " << cfg.params << " k=" << cfg.k << "\n"
            << "input bits: " << cfg.input.size() << "\n"
            << "completed:  " << (run.result.quiescent ? "yes" : "NO") << "\n"
            << "correct:    " << (run.output_correct ? "yes" : "NO") << "\n";
  const bool capped = run.result.event_count >= kEventCap;
  if (capped) std::cout << "stopped:    event cap of " << kEventCap << " reached\n";
  if (!drift.empty()) {
    std::cout << "drift:      " << drift << "\n";
  }
  if (want_estimator) {
    std::cout << "estimator:  margin " << est_margin << ", (c1,c2,d) = ("
              << est_run.gauges.c1_hat << ", " << est_run.gauges.c2_hat << ", "
              << est_run.gauges.d_hat << "), " << est_run.gauges.gap_samples << " gap / "
              << est_run.gauges.delay_samples << " delay samples, " << est_run.gauges.resizes
              << " resizes\n";
  }
  double effort = 0;
  if (run.result.last_transmitter_send.has_value() && !cfg.input.empty()) {
    effort = static_cast<double>((*run.result.last_transmitter_send - Time::zero()).ticks()) /
             static_cast<double>(cfg.input.size());
    std::cout << "effort:     " << effort << " ticks/bit\n";
  }
  const core::VerifyResult verdict = checker.finish();
  std::cout << "verifier:   " << (verdict.ok() ? "accepts (in good(A))" : "REJECTS") << '\n';
  if (!verdict.ok()) std::cout << verdict;
  if (want_stats) {
    std::cout << core::compute_trace_stats(run.result.trace) << '\n';
  }
  if (timer.has_value()) {
    print_host_timing(*timer, wall_ns, run.result.metrics.counters.protocol);
  }
  if (!metrics_file.empty()) {
    obs::RunMetricsRecord record{
        sim::run_identity(*kind, cfg.params, cfg.k, cfg.input.size(), env.seed)};
    record.effort = effort;
    record.end_time = (run.result.end_time - Time::zero()).ticks();
    record.correct = run.output_correct;
    record.quiescent = run.result.quiescent;
    record.metrics = run.result.metrics;
    record.est = est_run.gauges;
    if (!append_metrics_jsonl(metrics_file, {record})) return cannot_open(metrics_file);
    std::cout << "metrics:    appended to " << metrics_file << "\n";
  }
  if (!trace_file.empty()) {
    std::ofstream out{trace_file};
    if (!out) return cannot_open(trace_file);
    ioa::write_trace(out, run.result.trace);
    std::cout << "trace:      written to " << trace_file << " (" << run.result.trace.size()
              << " events)\n";
  }
  if (tracer.has_value() && write_trace_out(*tracer, trace_out_file) != 0) return 4;
  if (run.output_correct && verdict.ok()) return 0;
  // A run the cap stopped is inconclusive unless what it did is already
  // wrong: the unsent packets and the short Y are the cap's doing.
  const bool only_cut_short = std::all_of(
      verdict.violations.begin(), verdict.violations.end(), [](const core::Violation& v) {
        return v.kind == core::ViolationKind::UndeliveredPacket ||
               v.kind == core::ViolationKind::OutputIncomplete;
      });
  return capped && only_cut_short ? 3 : 1;
}

int cmd_verify(const Args& args) {
  const auto params = model_args(args.positional, 0);
  if (!params.has_value()) return 2;
  const std::string path{args.positional[3]};
  std::ifstream in{path};
  if (!in) return cannot_open(path);
  // A malformed trace is a usage error (exit 2); exit 1 is reserved for a
  // trace that parses but does not verify.
  ioa::TimedTrace trace;
  try {
    trace = ioa::parse_trace(in);
  } catch (const ModelError& e) {
    std::cerr << "error in '" << path << "': " << e.what() << "\n";
    return 2;
  }
  const auto expected = bit_string(args.positional[4]);
  if (!expected.has_value()) {
    std::cerr << "expected-output must be a 0/1 string\n";
    return 2;
  }
  const core::VerifyResult verdict = core::verify_trace(trace, *params, *expected);
  std::cout << verdict << '\n';
  return verdict.ok() ? 0 : 1;
}

int cmd_explore(const Args& args) {
  const auto kind = protocol_arg(args.positional[0]);
  if (!kind.has_value()) return 2;
  const auto d = parse_number<std::int64_t>(args.positional[1]);
  if (!d.has_value()) return bad_number("d", args.positional[1]);
  if (*d < 1 || *d > core::TimingParams::kMaxSteps) {
    std::cerr << "out-of-model d '" << args.positional[1]
              << "': the model needs c2 = 1 <= d <= " << core::TimingParams::kMaxSteps << '\n';
    return 2;
  }
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 1, *d);
  const auto k = codec_alphabet_arg(args.positional[2]);
  if (!k.has_value() || !protocol_accepts_k(*kind, *k)) return 2;
  cfg.k = *k;
  if (!codec_tables_fit(*kind, cfg, "d", args.positional[1])) return 2;
  const auto bits = bit_string(args.positional[3]);
  if (!bits.has_value()) {
    std::cerr << "input must be a 0/1 string\n";
    return 2;
  }
  cfg.input = *bits;
  cfg.k = protocols::alphabet_for(*kind, cfg.k, cfg.input.size());
  const ioa::ExplorerResult result = core::explore_transfer(*kind, cfg);
  const bool violated = !result.safety_held || !result.all_terminals_complete;
  std::cout << "states:      " << result.distinct_states << "\n"
            << "transitions: " << result.transitions << "\n"
            << "terminals:   " << result.terminal_states << "\n"
            << "verdict:     "
            << (violated                ? "VIOLATION FOUND"
                : result.exhausted_caps ? "INCONCLUSIVE (state cap reached)"
                                        : "VERIFIED over all schedules")
            << '\n';
  if (violated && !result.counterexample.empty()) {
    std::cout << "\ncounterexample:\n";
    ioa::write_trace(std::cout, result.counterexample);
  }
  return violated ? 1 : result.exhausted_caps ? 3 : 0;
}

int cmd_campaign(const Args& args) {
  const std::string metrics_file = args.text("--metrics-out");
  const unsigned threads = args.number("--threads", 1u);
  const bool want_estimator = args.has("--estimator");
  const std::optional<double> margin_override = estimator_margin(args);
  std::optional<core::DriftSpec> drift_override;
  if (args.has("--drift")) {
    drift_override = parse_drift(args.text("--drift"));
    if (!drift_override.has_value()) return 2;
  }
  // Bare --estimator runs the pinned estimator grid (margin 0, its own drift
  // axis — the checked-in estimator_baseline.jsonl); overrides are for
  // ad-hoc sweeps, not the baseline.
  sim::CampaignSpec spec =
      want_estimator ? est::golden_estimator_spec() : sim::golden_campaign_spec();
  if (margin_override.has_value()) spec.estimator.margin = *margin_override;
  if (drift_override.has_value()) spec.drifts = {*drift_override};
  const sim::CampaignResult result = sim::Campaign{spec}.run(threads);
  if (want_estimator) {
    std::cout << "estimator grid: " << result.jobs.size() << " jobs, " << result.incorrect
              << " incorrect, est penalty mean/max " << result.est_penalty.mean << "/"
              << result.est_penalty.max << ", mean effort " << result.effort.mean
              << " ticks/bit\n";
  } else {
    std::cout << "golden grid: " << result.jobs.size() << " jobs, " << result.incorrect
              << " incorrect, mean effort " << result.effort.mean << " ticks/bit\n";
  }
  if (!metrics_file.empty()) {
    if (!append_metrics_jsonl(metrics_file, sim::campaign_metrics_records(result,
                                                                          spec.input_bits))) {
      return cannot_open(metrics_file);
    }
    std::cout << "metrics:     appended " << result.jobs.size() << " jobs to " << metrics_file
              << "\n";
  }
  return result.all_correct() ? 0 : 1;
}

int cmd_mega(const Args& args) {
  // Defaults ARE the golden megasession cell: `rstp mega --sessions 10000
  // --metrics-out F` reproduces the checked-in baseline bit for bit (modulo
  // the wall-clock events_per_sec field, which the gate treats as aggregate-
  // only). Every flag is an ad-hoc override for exploration.
  sim::MultiSessionSpec spec = sim::golden_megasession_spec();
  if (args.has("--protocol")) {
    const auto kind = protocol_arg(args.text("--protocol"));
    if (!kind.has_value()) return 2;
    spec.protocol = *kind;
  }
  spec.sessions = args.number("--sessions", spec.sessions);
  spec.shards = args.number("--shards", spec.shards);
  spec.k = args.number("--k", spec.k);
  spec.input_bits = args.number("--bits", spec.input_bits);
  spec.base_seed = args.number("--seed", spec.base_seed);
  spec.max_events_per_session = args.number("--max-events", spec.max_events_per_session);
  const unsigned threads = args.number("--threads", 1u);
  const std::string metrics_file = args.text("--metrics-out");
  if (!protocol_accepts_k(spec.protocol, spec.k)) return 2;
  const sim::MultiSession mega{spec};
  const sim::MultiSessionResult result = mega.run(threads);
  std::cout << "mega: " << result.sessions << " sessions on " << spec.shards << " shards, "
            << result.total_events << " events in " << std::fixed << std::setprecision(2)
            << result.elapsed_seconds << "s (" << std::setprecision(0)
            << result.events_per_sec << " events/sec), mean effort " << std::setprecision(2)
            << result.effort.mean << " ticks/bit, "
            << result.sessions - result.correct_sessions << " incorrect, "
            << result.sessions - result.quiescent_sessions << " non-quiescent\n";
  if (!metrics_file.empty()) {
    if (!append_metrics_jsonl(metrics_file, {sim::multi_session_metrics_record(spec, result)})) {
      return cannot_open(metrics_file);
    }
    std::cout << "metrics: appended 1 fold record to " << metrics_file << "\n";
  }
  return result.all_correct() ? 0 : 1;
}

/// The two-file (diff / gate) form of `rstp report`. Malformed inputs and
/// threshold specs are usage-class errors (exit 2, naming the offending line
/// or token); a tripped gate is its own outcome (exit 3) so CI can tell
/// "regressed" from "broken invocation".
int cmd_report_diff(const std::string& old_path, const std::string& new_path, bool want_json,
                    const std::string& fail_on) {
  std::vector<obs::Threshold> thresholds;
  try {
    if (!fail_on.empty()) thresholds = obs::parse_thresholds(fail_on);
  } catch (const obs::ThresholdParseError& e) {
    std::cerr << "bad --fail-on clause '" << e.token() << "': " << e.what() << "\n";
    return 2;
  }
  const auto read_series = [](const std::string& path,
                              std::vector<obs::RunMetricsRecord>& out) {
    std::ifstream in{path};
    if (!in) return cannot_open(path);
    try {
      out = obs::read_run_metrics_jsonl(in);
    } catch (const obs::JsonParseError& e) {
      std::cerr << "error in '" << path << "': " << e.what() << "\n";
      return 2;
    }
    return 0;
  };
  std::vector<obs::RunMetricsRecord> old_records;
  std::vector<obs::RunMetricsRecord> new_records;
  if (const int rc = read_series(old_path, old_records); rc != 0) return rc;
  if (const int rc = read_series(new_path, new_records); rc != 0) return rc;

  const obs::DiffReport report = obs::diff_metrics(old_records, new_records);
  if (want_json) {
    obs::write_diff_json(std::cout, report);
  } else {
    obs::print_diff_table(std::cout, report);
  }
  if (thresholds.empty()) return 0;
  std::vector<obs::ThresholdViolation> violations;
  try {
    violations = obs::evaluate_thresholds(report, thresholds);
  } catch (const obs::ThresholdParseError& e) {
    std::cerr << "bad --fail-on clause '" << e.token() << "': " << e.what() << "\n";
    return 2;
  }
  if (violations.empty()) {
    std::cerr << "gate: all " << thresholds.size() << " thresholds hold\n";
    return 0;
  }
  for (const obs::ThresholdViolation& v : violations) {
    std::cerr << "gate: " << v.threshold.source << " tripped: " << v.quantity.name << " "
              << (v.quantity.integral ? std::to_string(v.quantity.old_u)
                                      : std::to_string(v.quantity.old_v))
              << " -> "
              << (v.quantity.integral ? std::to_string(v.quantity.new_u)
                                      : std::to_string(v.quantity.new_v))
              << " (+" << v.observed << (v.threshold.relative ? "%" : "") << ")\n";
  }
  return 3;
}

int cmd_report(const Args& args) {
  const std::vector<std::string> files(args.positional.begin(), args.positional.end());
  const bool want_json = args.has("--json");
  const std::string fail_on = args.text("--fail-on");
  if (files.size() == 2) {
    return cmd_report_diff(files[0], files[1], want_json, fail_on);
  }
  // The single-file form renders the table. Like the two-file form, it
  // exits 2 on malformed input, naming the file and line.
  if (want_json || !fail_on.empty()) return usage({&args.verb, 1});
  std::ifstream in{files[0]};
  if (!in) return cannot_open(files[0]);
  std::vector<obs::RunMetricsRecord> records;
  try {
    records = obs::read_run_metrics_jsonl(in);
  } catch (const obs::JsonParseError& e) {
    std::cerr << "error in '" << files[0] << "': " << e.what() << "\n";
    return 2;
  }
  obs::print_metrics_table(std::cout, records);
  return 0;
}

/// One JSONL row per fuzz-corpus entry, in the standard run-metrics schema
/// (so `rstp report` and the diff gate work on fuzz output unchanged).
[[nodiscard]] obs::RunMetricsRecord fuzz_metrics_record(const sim::FuzzCase& c,
                                                        const sim::FuzzCaseResult& r) {
  obs::RunMetricsRecord record{
      sim::run_identity(c.protocol, c.params, c.k, c.input_bits, c.input_seed)};
  record.effort = r.effort;
  record.end_time = r.end_time;
  record.correct = !r.failed && !r.crashed;
  record.quiescent = r.quiescent;
  record.metrics = r.metrics;
  return record;
}

int cmd_fuzz(const Args& args) {
  const auto kind = protocol_arg(args.positional[0]);
  if (!kind.has_value()) return 2;
  sim::FuzzSpec spec;
  spec.protocol = *kind;
  spec.seed = args.number("--seed", spec.seed);
  spec.budget = args.number("--budget", spec.budget);
  spec.jobs = args.number("--jobs", spec.jobs);
  spec.k = args.number("--k", spec.k);
  spec.max_input_bits = args.number("--bits", spec.max_input_bits);
  spec.max_events = args.number("--max-events", spec.max_events);
  spec.time_budget_ms = args.number("--time-budget-ms", spec.time_budget_ms);
  spec.wait_override = args.number("--wait-override", spec.wait_override);
  spec.block_override = args.number("--block-override", spec.block_override);
  spec.faults_enabled = args.has("--faults");
  spec.stop_on_failure = !args.has("--keep-going");
  const std::string corpus_dir = args.text("--corpus");
  const std::string repro_file = args.text("--repro-out");
  const std::string metrics_file = args.text("--metrics-out");
  if (!protocol_accepts_k(spec.protocol, spec.k)) return 2;
  // Cases draw d <= 16 and k <= --k, whose tables always fit: only an
  // override can set a block that does not.
  if (spec.block_override != 0) {
    protocols::ProtocolConfig cfg;
    cfg.k = spec.k;
    cfg.block_size_override = spec.block_override;
    if (!codec_tables_fit(spec.protocol, cfg, "--block-override",
                          std::to_string(spec.block_override))) {
      return 2;
    }
  }

  if (!corpus_dir.empty()) {
    try {
      spec.corpus_seeds = sim::read_fuzz_corpus(corpus_dir);
    } catch (const ModelError& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
    // The corpus seeds schedules, not protocols.
    for (sim::FuzzCase& seed_case : spec.corpus_seeds) seed_case.protocol = spec.protocol;
  }

  const sim::FuzzResult result = sim::run_fuzz(spec);
  std::cout << "protocol:      " << protocols::to_string(spec.protocol) << "\n"
            << "executed:      " << result.executed << " cases (budget " << spec.budget
            << ", jobs " << spec.jobs << ")\n"
            << "coverage:      " << result.coverage << " fingerprints (hash "
            << result.coverage_hash << ")\n"
            << "corpus:        " << result.corpus.size() << " cases\n"
            << "failures:      " << result.failures.size() << "\n";

  if (!metrics_file.empty()) {
    std::vector<obs::RunMetricsRecord> records;
    records.reserve(result.corpus.size());
    for (std::size_t i = 0; i < result.corpus.size(); ++i) {
      records.push_back(fuzz_metrics_record(result.corpus[i], result.corpus_results[i]));
    }
    if (!append_metrics_jsonl(metrics_file, records)) return cannot_open(metrics_file);
    std::cout << "metrics:       appended " << records.size() << " rows to " << metrics_file
              << "\n";
  }

  if (result.ok()) return 0;
  for (const sim::FuzzFailure& failure : result.failures) {
    std::cout << "\nfailure: " << failure.result.failure << "\n";
  }
  const sim::FuzzFailure& first = result.failures.front();
  if (!repro_file.empty()) {
    std::ofstream out{repro_file};
    if (!out) return cannot_open(repro_file);
    sim::write_fuzz_repro(out, first.minimized, first.result);
    std::cout << "repro:         written to " << repro_file << " (rstp replay " << repro_file
              << ")\n";
  } else {
    std::cout << "\n";  // repro inline: pipe to a file and `rstp replay` it
    sim::write_fuzz_repro(std::cout, first.minimized, first.result);
  }
  return 1;
}

int cmd_adversary(const Args& args) {
  sim::AdversarySpec spec;
  spec.grid = args.text("--grid") == "quick" ? sim::quick_adversary_grid()
                                             : sim::golden_adversary_grid();
  spec.seed = args.number("--seed", spec.seed);
  spec.budget = args.number("--budget", spec.budget);
  spec.jobs = args.number("--jobs", spec.jobs);
  spec.max_events = args.number("--max-events", spec.max_events);
  const std::string repro_file = args.text("--repro-out");
  const std::string metrics_file = args.text("--metrics-out");

  const sim::AdversaryResult result = sim::run_adversary_search(spec);

  std::cout << "adversary synthesis: " << result.cells.size() << " cells, budget "
            << spec.budget << "/cell, seed " << spec.seed << ", jobs " << spec.jobs
            << " (result hash " << result.result_hash << ")\n";
  std::cout << std::left << std::setw(8) << "proto" << std::right << std::setw(4) << "c1"
            << std::setw(4) << "c2" << std::setw(4) << "d" << std::setw(4) << "k"
            << std::setw(10) << "bound" << std::setw(10) << "hand" << std::setw(10) << "best"
            << std::setw(11) << "gap_ratio" << "  verdict\n";
  for (const sim::AdversaryCellResult& cell : result.cells) {
    std::cout << std::left << std::setw(8) << protocols::to_string(cell.cell.protocol)
              << std::right << std::setw(4) << cell.cell.params.c1.ticks() << std::setw(4)
              << cell.cell.params.c2.ticks() << std::setw(4) << cell.cell.params.d.ticks()
              << std::setw(4) << cell.cell.k << std::setw(10) << std::fixed
              << std::setprecision(3) << cell.lower_bound << std::setw(10) << cell.hand_effort
              << std::setw(10) << cell.best.effort << std::setw(11) << cell.gap_ratio << "  "
              << (cell.beats_hand() ? "best>=hand" : "BELOW HAND") << "\n";
  }

  if (!metrics_file.empty()) {
    const std::vector<obs::RunMetricsRecord> records =
        sim::adversary_metrics_records(result, spec.seed);
    if (!append_metrics_jsonl(metrics_file, records)) return cannot_open(metrics_file);
    std::cout << "metrics:   appended " << records.size() << " rows to " << metrics_file
              << "\n";
  }

  if (!repro_file.empty()) {
    // The most interesting witness: the cell with the largest empirical gap.
    const auto widest = std::max_element(
        result.cells.begin(), result.cells.end(),
        [](const auto& a, const auto& b) { return a.gap_ratio < b.gap_ratio; });
    std::ofstream out{repro_file};
    if (!out) return cannot_open(repro_file);
    sim::write_adversary_repro(out, sim::make_adversary_repro(*widest, spec.max_events));
    std::cout << "repro:     written to " << repro_file << " (rstp replay " << repro_file
              << ")\n";
  }

  if (!result.all_beat_hand()) {
    std::cerr << "adversary search fell below the hand-coded policy on some cell\n";
    return 1;
  }
  return 0;
}

/// Prints a replay's verdict line: exit 0 iff every recorded field matched.
int replay_verdict(bool reproduced, const std::string& mismatch) {
  if (reproduced) {
    std::cout << "reproduced: yes (all recorded fields match bitwise)\n";
    return 0;
  }
  std::cout << "reproduced: NO — " << mismatch << "\n";
  return 1;
}

/// Replays an rstp-adversary-v1 artifact (cmd_replay dispatches here on the
/// document's header).
int replay_adversary(const sim::AdversaryRepro& repro) {
  const sim::AdversaryReplayOutcome outcome = sim::replay_adversary_repro(repro);
  std::cout << "case:       " << protocols::to_string(repro.cell.protocol) << " "
            << repro.cell.params << " k=" << repro.cell.k << " bits="
            << repro.cell.input_bits << " (adversary genome)\n"
            << "effort:     " << std::fixed << std::setprecision(3) << outcome.eval.effort
            << " (last_send " << outcome.eval.last_send << ", "
            << (outcome.eval.correct ? "correct" : "INCORRECT") << ", "
            << (outcome.eval.quiescent ? "quiescent" : "event-capped") << ")\n";
  return replay_verdict(outcome.reproduced, outcome.mismatch);
}

int cmd_replay(const Args& args) {
  const std::string trace_out_file = args.text("--trace-out");
  const std::string path{args.positional[0]};
  std::ifstream in{path};
  if (!in) return cannot_open(path);
  // A malformed artifact is a usage error (exit 2), like a malformed corpus;
  // exit 1 is reserved for an artifact that parses but does not reproduce.
  sim::FuzzRepro repro;
  try {
    sim::ArtifactDocument doc = sim::read_artifact(in);
    if (doc.header.text() == sim::adversary_repro_header()) {
      if (!trace_out_file.empty()) {
        std::cerr << "--trace-out is not supported for adversary artifacts\n";
        return 2;
      }
      const sim::AdversaryRepro adversary = sim::parse_adversary_repro(std::move(doc));
      return replay_adversary(adversary);
    }
    repro = sim::parse_fuzz_repro(std::move(doc));
  } catch (const ModelError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  std::optional<obs::trace::Tracer> tracer;
  std::optional<obs::trace::ModelRecorder> recorder;
  if (!trace_out_file.empty()) {
    tracer.emplace();
    recorder.emplace(*tracer);
  }
  const sim::ReplayOutcome outcome =
      sim::replay_fuzz_repro(repro, recorder.has_value() ? &*recorder : nullptr);
  if (tracer.has_value() && write_trace_out(*tracer, trace_out_file) != 0) return 4;
  std::cout << "case:       " << protocols::to_string(repro.fuzz_case.protocol) << " "
            << repro.fuzz_case.params << " k=" << repro.fuzz_case.k << " bits="
            << repro.fuzz_case.input_bits << "\n"
            << "verdict:    "
            << (outcome.result.failed ? "FAILED" : outcome.result.crashed ? "crashed (excused)"
                                                                          : "ok")
            << "\n";
  if (!outcome.result.failure.empty()) {
    std::cout << "detail:     " << outcome.result.failure << "\n";
  }
  return replay_verdict(outcome.reproduced, outcome.mismatch);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view command = argc < 2 ? "" : argv[1];
  const auto verb = std::find_if(std::begin(cli::kVerbs), std::end(cli::kVerbs),
                                 [&](const cli::Verb& v) { return v.name == command; });
  if (verb == std::end(cli::kVerbs)) return usage();
  try {
    const std::optional<Args> args = parse_args(*verb, argc, argv);
    if (!args.has_value()) return 2;
    if (command == "bounds") return cmd_bounds(*args);
    if (command == "run") return cmd_run(*args);
    if (command == "verify") return cmd_verify(*args);
    if (command == "explore") return cmd_explore(*args);
    if (command == "campaign") return cmd_campaign(*args);
    if (command == "mega") return cmd_mega(*args);
    if (command == "report") return cmd_report(*args);
    if (command == "fuzz") return cmd_fuzz(*args);
    if (command == "adversary") return cmd_adversary(*args);
    return cmd_replay(*args);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
