// rstp — command-line front end to the library.
//
//   rstp bounds  <c1> <c2> <d> <k>
//       Print every closed-form bound for the model.
//
//   rstp run     <protocol> <c1> <c2> <d> <k> <n|bits> [options]
//       Run a protocol end to end and print transfer statistics.
//         protocol: alpha | beta | gamma | altbit | indexed | strawman
//         n|bits:   a length (random input, seeded) or a literal 0/1 string
//         --env worst|fast|random|adversarial   (default worst)
//         --seed N                              (default 1)
//         --trace FILE                          write the timed trace
//         --trace-out FILE                      write a Chrome-trace/Perfetto
//                                               span timeline (rstp-trace-v1)
//         --stats                               print trace statistics
//         --metrics-out FILE                    append the run's metrics (JSONL)
//         --timing                              print host time per layer
//                                               (automata, schedulers, delivery
//                                               policy) net of the calibrated
//                                               timer cost, with the residual,
//                                               summing to the run's wall time
//
//   rstp verify  <c1> <c2> <d> <tracefile> <bits>
//       Check a saved trace against good(A) and the expected output.
//       Exit 0 iff it verifies, 1 if it does not, 2 on a malformed trace.
//
//   rstp explore <protocol> <d> <k> <bits>
//       Exhaustively verify all schedules (c1=c2=1) for a small instance;
//       prints a counterexample trace on failure.
//
//   rstp campaign [--metrics-out FILE] [--threads N] [--dashboard]
//       Run the fixed golden campaign grid (the regression-gate reference;
//       bitwise deterministic for any thread count) and append one JSONL row
//       per job to --metrics-out. --dashboard renders a live terminal view
//       (per-protocol bars, jobs/sec, ETA, rolling effort mean and delay
//       percentiles); when stdout is not a TTY or NO_COLOR is set it
//       degrades to the one-line progress mode (never ANSI). --no-dashboard
//       wins over --dashboard. Display never touches the result.
//
//   rstp mega [--sessions N] [--shards N] [--threads N] [--protocol P]
//             [--k K] [--bits N] [--seed N] [--max-events N]
//             [--metrics-out FILE]
//       Run N independent sessions of one cell, back to back on each
//       shard (the million-session engine, sim/multi_session.h). Defaults are the
//       golden megasession cell, so `rstp mega --sessions 10000
//       --metrics-out F` regenerates tests/golden/megasession_baseline.jsonl.
//       Appends ONE JSONL row — the session-order fold — carrying the
//       `sessions` and `events_per_sec` schema fields.
//
//   rstp report <metrics.jsonl>
//       Render a metrics JSONL file (from --metrics-out) as a table.
//
//   rstp report <old.jsonl> <new.jsonl> [--json] [--fail-on SPEC]
//       Join two metrics series by run identity and report per-cell and
//       aggregate deltas. --json emits the machine-readable
//       rstp-metrics-diff-v1 document instead of the table. --fail-on turns
//       the diff into a gate: SPEC is a comma-separated list of clauses like
//       'effort_mean>1%,delay_p99>5%,cells_changed>0' (grammar in
//       docs/OBSERVABILITY.md); any tripped clause exits 3.
//
//   rstp fuzz <protocol> [options]
//       Coverage-guided schedule/fault fuzzing (docs/TESTING.md). The run is
//       deterministic for a fixed --seed/--budget, for any --jobs value;
//       failures are minimized and written as replayable repro documents.
//         --seed N            master seed (default 1)
//         --budget N          case executions (default 256)
//         --jobs N            worker threads (default 1; 0 = hardware)
//         --k K  --bits N     alphabet size / max input bits
//         --faults            enable the fault injector (drops, duplicates,
//                             late deliveries, in-alphabet corruption)
//         --corpus DIR        seed with every *.case file in DIR (sorted)
//         --repro-out FILE    write the first failure's repro document here
//         --metrics-out FILE  append one JSONL row per corpus entry
//         --wait-override W / --block-override B   mutant knobs
//         --max-events N / --time-budget-ms N / --keep-going
//         --dashboard         live per-generation view (corpus, coverage
//                             growth, crash/failure counters); same TTY /
//                             NO_COLOR / --no-dashboard fallback as campaign
//
//   rstp adversary [options]
//       Coverage-guided adversary synthesis (docs/TESTING.md): per grid cell,
//       search the space of legal delivery schedules and process step plans
//       for an effort maximizer, and report the empirical gap to the paper's
//       Theorem 5.3/5.6 lower bounds. Generation 0 always contains the
//       hand-coded worst case, so best >= hand on every cell unless the
//       search itself regressed — exit 1 in that case.
//         --grid golden|quick   16-cell baseline grid / 4-cell smoke grid
//         --budget N            genome evaluations per cell (default 64)
//         --jobs N              worker threads (default 1; 0 = hardware);
//                               the result is bitwise identical for any value
//         --seed N              master seed (default 1)
//         --max-events N        per-run event cap (default 200000)
//         --repro-out FILE      write the max-gap cell's winning genome as a
//                               replayable rstp-adversary-v1 artifact
//         --metrics-out FILE    append one JSONL row per cell (gap_ratio
//                               feeds `rstp report --fail-on 'gap_ratio_max>…'`)
//
//   rstp replay <reprofile> [--trace-out FILE]
//       Re-execute a repro document (rstp-fuzz-repro-v1 or rstp-adversary-v1,
//       dispatched on the header line) and compare every recorded field.
//       Exit 0 iff the recorded verdict reproduces bitwise (even a failing
//       verdict), 1 on any divergence, 2 on a malformed artifact.
//       --trace-out writes the replay's span timeline (Chrome-trace JSON)
//       for post-mortem inspection in Perfetto (fuzz repros only).
//
// Exit code 0 on success/verified; 1 on failure (a run that is incorrect or
// does not verify, a replay that does not reproduce, an adversary below the
// hand-coded floor, any other error); 2 on usage errors (including malformed
// traces, metrics files, threshold specs, fuzz corpora and replay
// artifacts); 3 on a tripped --fail-on gate.
#include <algorithm>
#include <cstring>
#include <iomanip>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "rstp/common/parse.h"
#include "rstp/core/bounds.h"
#include "rstp/core/drift.h"
#include "rstp/core/effort.h"
#include "rstp/est/runner.h"
#include "rstp/core/trace_stats.h"
#include "rstp/core/verify.h"
#include "rstp/ioa/explorer.h"
#include "rstp/ioa/trace_io.h"
#include "rstp/obs/dashboard.h"
#include "rstp/obs/diff.h"
#include "rstp/obs/host_timer.h"
#include "rstp/obs/sinks.h"
#include "rstp/obs/trace.h"
#include "rstp/protocols/factory.h"
#include "rstp/sim/adversary.h"
#include "rstp/sim/campaign.h"
#include "rstp/sim/multi_session.h"
#include "rstp/sim/fuzz.h"

namespace {

using namespace rstp;
using protocols::ProtocolKind;

int usage() {
  std::cerr << "usage:\n"
               "  rstp bounds  <c1> <c2> <d> <k>\n"
               "  rstp run     <protocol> <c1> <c2> <d> <k> <n|bits>"
               " [--env worst|fast|random|adversarial] [--seed N] [--trace FILE]"
               " [--trace-out FILE] [--stats] [--metrics-out FILE] [--timing]"
               " [--estimator[=margin]] [--drift SPEC]\n"
               "  rstp verify  <c1> <c2> <d> <tracefile> <bits>\n"
               "  rstp explore <protocol> <d> <k> <bits>\n"
               "  rstp campaign [--metrics-out FILE] [--threads N] [--dashboard]"
               " [--no-dashboard] [--estimator[=margin]] [--drift SPEC]\n"
               "  rstp mega    [--sessions N] [--shards N] [--threads N]"
               " [--protocol P] [--k K] [--bits N] [--seed N] [--max-events N]"
               " [--metrics-out FILE]\n"
               "  rstp report  <metrics.jsonl>\n"
               "  rstp report  <old.jsonl> <new.jsonl> [--json] [--fail-on SPEC]\n"
               "  rstp fuzz    <protocol> [--seed N] [--budget N] [--jobs N] [--k K]"
               " [--bits N] [--faults] [--corpus DIR] [--repro-out FILE]"
               " [--metrics-out FILE] [--wait-override W] [--block-override B]"
               " [--max-events N] [--time-budget-ms N] [--keep-going]"
               " [--dashboard] [--no-dashboard]\n"
               "  rstp adversary [--grid golden|quick] [--budget N] [--jobs N]"
               " [--seed N] [--max-events N] [--repro-out FILE] [--metrics-out FILE]\n"
               "  rstp replay  <reprofile> [--trace-out FILE]\n";
  return 2;
}

/// Reports a bad numeric token the way usage errors are reported: name the
/// argument, echo the offending token, exit 2.
int bad_number(std::string_view what, std::string_view token) {
  std::cerr << "invalid " << what << " '" << token << "': expected a decimal integer\n";
  return 2;
}

/// Reports a count flag given as 0 where the command needs at least one
/// (exit 2).
int zero_count(std::string_view flag) {
  std::cerr << "invalid " << flag << " '0': expected a positive integer\n";
  return 2;
}

/// Parses c1, c2 and d from argv[at], argv[at + 1] and argv[at + 2] and
/// checks them against the model, 0 < c1 <= c2 <= d; nullopt after naming
/// the first bad field (exit 2).
[[nodiscard]] std::optional<core::TimingParams> model_args(char** argv, int at) {
  constexpr std::string_view kFields[] = {"c1", "c2", "d"};
  std::int64_t value[3] = {};
  for (int i = 0; i < 3; ++i) {
    const auto parsed = parse_number<std::int64_t>(argv[at + i]);
    if (!parsed.has_value()) {
      (void)bad_number(kFields[i], argv[at + i]);
      return std::nullopt;
    }
    value[i] = *parsed;
  }
  const int bad = value[0] < 1 ? 0 : value[1] < value[0] ? 1 : value[2] < value[1] ? 2 : -1;
  if (bad >= 0) {
    std::cerr << "out-of-model " << kFields[bad] << " '" << argv[at + bad]
              << "': the model needs 0 < c1 <= c2 <= d\n";
    return std::nullopt;
  }
  return core::TimingParams::make(value[0], value[1], value[2]);
}

/// Parses the alphabet size k and checks k >= 2; nullopt after reporting
/// (exit 2).
[[nodiscard]] std::optional<std::uint32_t> alphabet_arg(const char* token) {
  const auto k = parse_number<std::uint32_t>(token);
  if (!k.has_value()) {
    (void)bad_number("k", token);
  } else if (*k < 2) {
    std::cerr << "out-of-model k '" << token << "': the model needs k >= 2\n";
    return std::nullopt;
  }
  return k;
}

/// The protocol named `name`; nullopt after reporting an unknown name.
[[nodiscard]] std::optional<protocols::ProtocolKind> protocol_arg(const char* name) {
  const auto kind = protocols::protocol_from_string(name);
  if (!kind.has_value()) std::cerr << "unknown protocol '" << name << "'\n";
  return kind;
}

/// Parses the number after the flag at argv[i] into `slot`, stepping i onto
/// it; false when it is missing or malformed (argv[i] is then the bad token).
template <typename T>
[[nodiscard]] bool take_number(int argc, char** argv, int& i, T& slot) {
  if (i + 1 >= argc) return false;
  const auto parsed = parse_number<T>(argv[++i]);
  if (parsed.has_value()) slot = *parsed;
  return parsed.has_value();
}

/// The value of `NAME VALUE` or `NAME=VALUE` at argv[i], stepping i past a
/// separate VALUE; nullopt when argv[i] is neither spelling.
[[nodiscard]] std::optional<std::string> flag_value(std::string_view name, int argc, char** argv,
                                                    int& i) {
  const std::string_view arg = argv[i];
  if (arg == name && i + 1 < argc) return argv[++i];
  if (arg.size() > name.size() && arg.starts_with(name) && arg[name.size()] == '=') {
    return std::string{arg.substr(name.size() + 1)};
  }
  return std::nullopt;
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

/// Parses the input argument: a pure 0/1 string of length ≥ 8 is a literal
/// bit sequence; anything else is a decimal length for a seeded random
/// input (so "64" is 64 random bits, "01100110" is those exact 8 bits).
/// std::nullopt when the token is neither.
std::optional<std::vector<ioa::Bit>> parse_input(const std::string& text, std::uint64_t seed) {
  if (text.find_first_not_of("01") == std::string::npos && text.size() >= 8) {
    std::vector<ioa::Bit> bits;
    bits.reserve(text.size());
    for (const char c : text) bits.push_back(static_cast<ioa::Bit>(c - '0'));
    return bits;
  }
  const auto length = parse_number<std::uint32_t>(text);
  if (!length.has_value()) return std::nullopt;
  return core::make_random_input(*length, seed);
}

/// Reports a file that cannot be opened; returns exit code 1.
int cannot_open(std::string_view path) {
  std::cerr << "cannot open '" << path << "'\n";
  return 1;
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
/// exit code 0, or 1 when the file cannot be opened.
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
/// codec's block counts (codec time is inside protocols.apply and setup).
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
     << " blocks decoded (encode time inside protocols.enabled_local, decode inside "
        "protocols.apply)\n";
  std::cout << os.str();
}

int cmd_bounds(int argc, char** argv) {
  if (argc != 6) return usage();
  const auto params = model_args(argv, 2);
  if (!params.has_value()) return 2;
  const auto k = alphabet_arg(argv[5]);
  if (!k.has_value()) return 2;
  std::cout << core::compute_bounds(*params, *k) << '\n';
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 8) return usage();
  const auto kind = protocol_arg(argv[2]);
  if (!kind.has_value()) return 2;
  const auto params = model_args(argv, 3);
  if (!params.has_value()) return 2;
  const auto k = alphabet_arg(argv[6]);
  if (!k.has_value()) return 2;
  protocols::ProtocolConfig cfg;
  cfg.params = *params;
  cfg.k = *k;

  core::Environment env = core::Environment::worst_case();
  std::uint64_t seed = 1;
  std::string trace_file;
  std::string trace_out_file;
  std::string metrics_file;
  bool want_stats = false;
  bool want_timing = false;
  bool want_estimator = false;
  double est_margin = 0.125;
  core::DriftSpec drift;
  for (int i = 8; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--env" && i + 1 < argc) {
      const std::string name = argv[++i];
      if (name == "worst") {
        env = core::Environment::worst_case();
      } else if (name == "fast") {
        env.transmitter_sched = core::Environment::Sched::FastFixed;
        env.receiver_sched = core::Environment::Sched::FastFixed;
        env.delay = core::Environment::Delay::Zero;
      } else if (name == "random") {
        env = core::Environment::randomized(seed);
      } else if (name == "adversarial") {
        env = core::Environment::adversarial_fast();
      } else {
        std::cerr << "unknown environment '" << name << "'\n";
        return 2;
      }
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!take_number(argc, argv, i, seed)) return bad_number(arg, argv[i]);
      env.seed = seed;
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_file = argv[++i];
    } else if (const auto file = flag_value("--trace-out", argc, argv, i)) {
      trace_out_file = *file;
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (arg == "--timing") {
      want_timing = true;
    } else if (arg == "--estimator") {
      want_estimator = true;
    } else if (arg.rfind("--estimator=", 0) == 0) {
      const auto margin = parse_margin(arg.substr(std::string_view{"--estimator="}.size()));
      if (!margin.has_value()) return 2;
      want_estimator = true;
      est_margin = *margin;
    } else if (const auto token = flag_value("--drift", argc, argv, i)) {
      const auto parsed = parse_drift(*token);
      if (!parsed.has_value()) return 2;
      drift = *parsed;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    }
  }
  if (want_estimator && *kind != ProtocolKind::Beta && *kind != ProtocolKind::Gamma) {
    std::cerr << "--estimator supports only beta and gamma\n";
    return 2;
  }
  const auto input = parse_input(argv[7], seed);
  if (!input.has_value()) return bad_number("input length", argv[7]);
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
      {.max_events = 50'000'000,
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
    obs::RunMetricsRecord record;
    record.protocol = protocols::to_string(*kind);
    record.c1 = cfg.params.c1.ticks();
    record.c2 = cfg.params.c2.ticks();
    record.d = cfg.params.d.ticks();
    record.k = cfg.k;
    record.input_bits = cfg.input.size();
    record.seed = env.seed;
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
  if (tracer.has_value() && write_trace_out(*tracer, trace_out_file) != 0) return 1;
  return run.output_correct && verdict.ok() ? 0 : 1;
}

int cmd_verify(int argc, char** argv) {
  if (argc != 7) return usage();
  const auto params = model_args(argv, 2);
  if (!params.has_value()) return 2;
  std::ifstream in{argv[5]};
  if (!in) return cannot_open(argv[5]);
  // A malformed trace is a usage error (exit 2); exit 1 is reserved for a
  // trace that parses but does not verify.
  ioa::TimedTrace trace;
  try {
    trace = ioa::parse_trace(in);
  } catch (const ModelError& e) {
    std::cerr << "error in '" << argv[5] << "': " << e.what() << "\n";
    return 2;
  }
  std::vector<ioa::Bit> expected;
  for (const char c : std::string{argv[6]}) {
    if (c != '0' && c != '1') {
      std::cerr << "expected-output must be a 0/1 string\n";
      return 2;
    }
    expected.push_back(static_cast<ioa::Bit>(c - '0'));
  }
  const core::VerifyResult verdict = core::verify_trace(trace, *params, expected);
  std::cout << verdict << '\n';
  return verdict.ok() ? 0 : 1;
}

int cmd_explore(int argc, char** argv) {
  if (argc != 6) return usage();
  const auto kind = protocol_arg(argv[2]);
  if (!kind.has_value()) return 2;
  const auto d = parse_number<std::int64_t>(argv[3]);
  if (!d.has_value()) return bad_number("d", argv[3]);
  if (*d < 1) {
    std::cerr << "out-of-model d '" << argv[3] << "': the model needs d >= c2 = 1\n";
    return 2;
  }
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 1, *d);
  const auto k = alphabet_arg(argv[4]);
  if (!k.has_value()) return 2;
  cfg.k = *k;
  for (const char c : std::string{argv[5]}) {
    if (c != '0' && c != '1') {
      std::cerr << "input must be a 0/1 string\n";
      return 2;
    }
    cfg.input.push_back(static_cast<ioa::Bit>(c - '0'));
  }
  cfg.k = protocols::alphabet_for(*kind, cfg.k, cfg.input.size());
  const auto instance = protocols::make_protocol(*kind, cfg);
  ioa::ExplorerConfig config;
  config.d = *d;
  const auto& input = cfg.input;
  const auto prefix = [&input](const ioa::Automaton&, const ioa::Automaton& r) {
    const auto& out = dynamic_cast<const protocols::ReceiverBase&>(r).output();
    return out.size() <= input.size() && std::equal(out.begin(), out.end(), input.begin());
  };
  const auto complete = [&input](const ioa::Automaton&, const ioa::Automaton& r) {
    return dynamic_cast<const protocols::ReceiverBase&>(r).output() == input;
  };
  ioa::Explorer explorer{*instance.transmitter, *instance.receiver, config, prefix, complete};
  const ioa::ExplorerResult result = explorer.run();
  std::cout << "states:      " << result.distinct_states << "\n"
            << "transitions: " << result.transitions << "\n"
            << "terminals:   " << result.terminal_states << "\n"
            << "verdict:     " << (result.verified() ? "VERIFIED over all schedules"
                                                     : "VIOLATION FOUND")
            << '\n';
  if (!result.verified()) {
    if (result.exhausted_caps) {
      std::cout << "(state/branching caps exhausted — result inconclusive)\n";
    }
    if (!result.counterexample.empty()) {
      std::cout << "\ncounterexample:\n";
      ioa::write_trace(std::cout, result.counterexample);
    }
  }
  return result.verified() ? 0 : 1;
}

/// How `--dashboard` resolves against the terminal: live ANSI frames only on
/// a real TTY with NO_COLOR unset; otherwise the one-line fallback, which
/// never emits escape bytes (CI pipes it and greps for exactly that).
enum class ProgressStyle { None, Lines, Frames };

[[nodiscard]] ProgressStyle resolve_progress_style(bool want_dashboard) {
  if (!want_dashboard) return ProgressStyle::None;
  return obs::stream_supports_dashboard(stdout) ? ProgressStyle::Frames : ProgressStyle::Lines;
}

[[nodiscard]] obs::DashboardState campaign_dashboard_state(const sim::CampaignSnapshot& snap) {
  obs::DashboardState s;
  s.mode = obs::DashboardState::Mode::Campaign;
  s.label = "campaign";
  s.elapsed_seconds = snap.elapsed_seconds;
  s.done = snap.jobs_done;
  s.total = snap.jobs_total;
  s.events = snap.events;
  s.effort_jobs = snap.effort_jobs;
  if (snap.effort_jobs > 0) {
    s.effort_mean = snap.effort_sum / static_cast<double>(snap.effort_jobs);
  }
  s.protocols.reserve(snap.protocols.size());
  for (const sim::CampaignProtocolSnapshot& p : snap.protocols) {
    obs::DashboardProtocolRow row;
    row.name = std::string{protocols::to_string(p.protocol)};
    row.done = p.done;
    row.total = p.total;
    row.events = p.events;
    row.effort_jobs = p.effort_jobs;
    if (p.effort_jobs > 0) row.effort_mean = p.effort_sum / static_cast<double>(p.effort_jobs);
    s.protocols.push_back(std::move(row));
  }
  s.delay_buckets = snap.delay_buckets;
  s.delay_count = snap.delay_count;
  return s;
}

[[nodiscard]] obs::DashboardState fuzz_dashboard_state(const sim::FuzzGenerationSnapshot& snap,
                                                       protocols::ProtocolKind protocol) {
  obs::DashboardState s;
  s.mode = obs::DashboardState::Mode::Fuzz;
  s.label = "fuzz " + std::string{protocols::to_string(protocol)};
  s.elapsed_seconds = snap.elapsed_seconds;
  s.done = snap.executed;
  s.total = snap.budget;
  s.generation = snap.generation;
  s.corpus = snap.corpus;
  s.coverage = snap.coverage;
  s.coverage_gain = snap.coverage_gain;
  s.crashes = snap.crashes;
  s.failures = snap.failures;
  return s;
}

int cmd_campaign(int argc, char** argv) {
  std::string metrics_file;
  unsigned threads = 1;
  bool want_dashboard = false;
  bool want_estimator = false;
  std::optional<double> margin_override;
  std::optional<core::DriftSpec> drift_override;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!take_number(argc, argv, i, threads)) return bad_number(arg, argv[i]);
    } else if (arg == "--dashboard") {
      want_dashboard = true;
    } else if (arg == "--no-dashboard") {
      want_dashboard = false;
    } else if (arg == "--estimator") {
      want_estimator = true;
    } else if (arg.rfind("--estimator=", 0) == 0) {
      const auto margin = parse_margin(arg.substr(std::string_view{"--estimator="}.size()));
      if (!margin.has_value()) return 2;
      want_estimator = true;
      margin_override = *margin;
    } else if (const auto token = flag_value("--drift", argc, argv, i)) {
      const auto parsed = parse_drift(*token);
      if (!parsed.has_value()) return 2;
      drift_override = *parsed;
    } else {
      return usage();
    }
  }
  // Bare --estimator runs the pinned estimator grid (margin 0, its own drift
  // axis — the checked-in estimator_baseline.jsonl); overrides are for
  // ad-hoc sweeps, not the baseline.
  sim::CampaignSpec spec =
      want_estimator ? est::golden_estimator_spec() : sim::golden_campaign_spec();
  if (margin_override.has_value()) spec.estimator.margin = *margin_override;
  if (drift_override.has_value()) spec.drifts = {*drift_override};
  const sim::Campaign campaign{spec};
  const ProgressStyle style = resolve_progress_style(want_dashboard);
  sim::CampaignProgress progress;
  obs::Dashboard dashboard{std::cout};
  if (style == ProgressStyle::Lines) {
    progress.out = &std::cout;
    progress.interval = std::chrono::milliseconds{500};
  } else if (style == ProgressStyle::Frames) {
    progress.interval = std::chrono::milliseconds{250};
    progress.on_snapshot = [&dashboard](const sim::CampaignSnapshot& snap) {
      dashboard.draw(campaign_dashboard_state(snap));
    };
  }
  const sim::CampaignResult result =
      style == ProgressStyle::None ? campaign.run(threads) : campaign.run(threads, progress);
  dashboard.close();
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

int cmd_mega(int argc, char** argv) {
  // Defaults ARE the golden megasession cell: `rstp mega --sessions 10000
  // --metrics-out F` reproduces the checked-in baseline bit for bit (modulo
  // the wall-clock events_per_sec field, which the gate treats as aggregate-
  // only). Every flag below is an ad-hoc override for exploration.
  sim::MultiSessionSpec spec = sim::golden_megasession_spec();
  unsigned threads = 1;
  std::string metrics_file;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--sessions" && i + 1 < argc) {
      if (!take_number(argc, argv, i, spec.sessions)) return bad_number(arg, argv[i]);
      if (spec.sessions == 0) return zero_count(arg);
    } else if (arg == "--shards" && i + 1 < argc) {
      if (!take_number(argc, argv, i, spec.shards)) return bad_number(arg, argv[i]);
      if (spec.shards == 0) return zero_count(arg);
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!take_number(argc, argv, i, threads)) return bad_number(arg, argv[i]);
    } else if (arg == "--protocol" && i + 1 < argc) {
      const auto kind = protocol_arg(argv[++i]);
      if (!kind.has_value()) return 2;
      spec.protocol = *kind;
    } else if (arg == "--k" && i + 1 < argc) {
      const auto k = alphabet_arg(argv[++i]);
      if (!k.has_value()) return 2;
      spec.k = *k;
    } else if (arg == "--bits" && i + 1 < argc) {
      const auto parsed = parse_number<std::uint32_t>(argv[++i]);
      if (!parsed.has_value()) return bad_number("--bits", argv[i]);
      spec.input_bits = *parsed;
    } else if (arg == "--seed" && i + 1 < argc) {
      if (!take_number(argc, argv, i, spec.base_seed)) return bad_number(arg, argv[i]);
    } else if (arg == "--max-events" && i + 1 < argc) {
      if (!take_number(argc, argv, i, spec.max_events_per_session)) return bad_number(arg, argv[i]);
      if (spec.max_events_per_session == 0) return zero_count(arg);
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else {
      return usage();
    }
  }
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

int cmd_report(int argc, char** argv) {
  std::vector<std::string> files;
  bool want_json = false;
  std::string fail_on;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      want_json = true;
    } else if (arg == "--fail-on" && i + 1 < argc) {
      fail_on = argv[++i];
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() == 2) {
    return cmd_report_diff(files[0], files[1], want_json, fail_on);
  }
  // The single-file form renders the table. Like the two-file form, it
  // exits 2 on malformed input, naming the file and line.
  if (files.size() != 1 || want_json || !fail_on.empty()) return usage();
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
  obs::RunMetricsRecord record;
  record.protocol = std::string{protocols::to_string(c.protocol)};
  record.c1 = c.params.c1.ticks();
  record.c2 = c.params.c2.ticks();
  record.d = c.params.d.ticks();
  record.k = c.k;
  record.input_bits = c.input_bits;
  record.seed = c.input_seed;
  record.effort = r.effort;
  record.end_time = r.end_time;
  record.correct = !r.failed && !r.crashed;
  record.quiescent = r.quiescent;
  record.metrics = r.metrics;
  return record;
}

int cmd_fuzz(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto kind = protocol_arg(argv[2]);
  if (!kind.has_value()) return 2;
  sim::FuzzSpec spec;
  spec.protocol = *kind;
  std::string corpus_dir;
  std::string repro_file;
  std::string metrics_file;
  bool want_dashboard = false;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      if (!take_number(argc, argv, i, spec.seed)) return bad_number(arg, argv[i]);
    } else if (arg == "--budget") {
      if (!take_number(argc, argv, i, spec.budget)) return bad_number(arg, argv[i]);
      if (spec.budget == 0) return zero_count(arg);
    } else if (arg == "--jobs") {
      if (!take_number(argc, argv, i, spec.jobs)) return bad_number(arg, argv[i]);
    } else if (arg == "--k" && i + 1 < argc) {
      const auto k = alphabet_arg(argv[++i]);
      if (!k.has_value()) return 2;
      spec.k = *k;
    } else if (arg == "--bits") {
      if (!take_number(argc, argv, i, spec.max_input_bits)) return bad_number(arg, argv[i]);
      if (spec.max_input_bits == 0) return zero_count(arg);
    } else if (arg == "--max-events") {
      if (!take_number(argc, argv, i, spec.max_events)) return bad_number(arg, argv[i]);
      if (spec.max_events == 0) return zero_count(arg);
    } else if (arg == "--time-budget-ms") {
      if (!take_number(argc, argv, i, spec.time_budget_ms)) return bad_number(arg, argv[i]);
    } else if (arg == "--wait-override") {
      if (!take_number(argc, argv, i, spec.wait_override)) return bad_number(arg, argv[i]);
    } else if (arg == "--block-override") {
      if (!take_number(argc, argv, i, spec.block_override)) return bad_number(arg, argv[i]);
    } else if (arg == "--faults") {
      spec.faults_enabled = true;
    } else if (arg == "--keep-going") {
      spec.stop_on_failure = false;
    } else if (arg == "--dashboard") {
      want_dashboard = true;
    } else if (arg == "--no-dashboard") {
      want_dashboard = false;
    } else if (arg == "--corpus" && i + 1 < argc) {
      corpus_dir = argv[++i];
    } else if (arg == "--repro-out" && i + 1 < argc) {
      repro_file = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
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

  const ProgressStyle style = resolve_progress_style(want_dashboard);
  obs::Dashboard dashboard{std::cout};
  if (style == ProgressStyle::Frames) {
    spec.on_generation = [&dashboard, &spec](const sim::FuzzGenerationSnapshot& snap) {
      dashboard.draw(fuzz_dashboard_state(snap, spec.protocol));
    };
  } else if (style == ProgressStyle::Lines) {
    spec.on_generation = [&spec](const sim::FuzzGenerationSnapshot& snap) {
      std::cout << obs::render_line(fuzz_dashboard_state(snap, spec.protocol)) << '\n'
                << std::flush;
    };
  }

  const sim::FuzzResult result = sim::run_fuzz(spec);
  dashboard.close();
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

int cmd_adversary(int argc, char** argv) {
  sim::AdversarySpec spec;
  spec.grid = sim::golden_adversary_grid();
  std::string repro_file;
  std::string metrics_file;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      if (!take_number(argc, argv, i, spec.seed)) return bad_number(arg, argv[i]);
    } else if (arg == "--budget") {
      if (!take_number(argc, argv, i, spec.budget)) return bad_number(arg, argv[i]);
      if (spec.budget == 0) return zero_count(arg);
    } else if (arg == "--jobs") {
      if (!take_number(argc, argv, i, spec.jobs)) return bad_number(arg, argv[i]);
    } else if (arg == "--max-events") {
      if (!take_number(argc, argv, i, spec.max_events)) return bad_number(arg, argv[i]);
      if (spec.max_events == 0) return zero_count(arg);
    } else if (arg == "--grid" && i + 1 < argc) {
      const std::string grid = argv[++i];
      if (grid == "golden") {
        spec.grid = sim::golden_adversary_grid();
      } else if (grid == "quick") {
        spec.grid = sim::quick_adversary_grid();
      } else {
        std::cerr << "unknown grid '" << grid << "' (want golden or quick)\n";
        return 2;
      }
    } else if (arg == "--repro-out" && i + 1 < argc) {
      repro_file = argv[++i];
    } else if (arg == "--metrics-out" && i + 1 < argc) {
      metrics_file = argv[++i];
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    }
  }

  spec.on_cell = [](const sim::AdversaryProgress& progress) {
    std::cerr << "adversary: cell " << (progress.cell_index + 1) << "/" << progress.cell_count
              << " done\n";
  };
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

int cmd_replay(int argc, char** argv) {
  if (argc < 3) return usage();
  std::string trace_out_file;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const auto file = flag_value("--trace-out", argc, argv, i)) {
      trace_out_file = *file;
    } else if (arg == "--estimator" || arg.rfind("--estimator=", 0) == 0) {
      std::cerr << "--estimator is not supported for replay: artifacts pin the recorded"
                   " constants\n";
      return 2;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    }
  }
  std::ifstream in{argv[2]};
  if (!in) return cannot_open(argv[2]);
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
  if (tracer.has_value() && write_trace_out(*tracer, trace_out_file) != 0) return 1;
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
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "bounds") return cmd_bounds(argc, argv);
    if (command == "run") return cmd_run(argc, argv);
    if (command == "verify") return cmd_verify(argc, argv);
    if (command == "explore") return cmd_explore(argc, argv);
    if (command == "campaign") return cmd_campaign(argc, argv);
    if (command == "mega") return cmd_mega(argc, argv);
    if (command == "report") return cmd_report(argc, argv);
    if (command == "fuzz") return cmd_fuzz(argc, argv);
    if (command == "adversary") return cmd_adversary(argc, argv);
    if (command == "replay") return cmd_replay(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
  return usage();
}
