// bench_layers: the repository benchmark. One invocation runs one workload in
// its own process (so peak RSS is per workload) and prints one JSON report on
// stdout.
//
//   bench_layers --workload NAME --seed S [--seconds N] [--traced [--trace-out PATH]]
//
// Every run:
//   1. warm-up: kWarmupReps untimed probes and repetitions;
//   2. the measurement: at least once and until --seconds have passed, one
//      set-up probe — the same spec with the event cap at 1 per session, job
//      or transfer — then one repetition of the whole workload on 1 worker
//      thread, each timed in wall seconds. The timings are the fastest probe
//      and the fastest repetition;
//   3. untraced, the end-to-end metrics: setup_s from the probes, bits_per_s
//      and events_per_s from the repetitions, peak_rss_mb the peak so far.
//      Traced, the per-layer metrics from the fastest of kReplays replays
//      of the same derived-seed sessions through timing decorators, each of
//      which must reproduce the untraced result field for field, plus
//      microbenchmarks of the layers too short to time per call;
//   4. the determinism check: the workload on 1 and on 2 worker threads must
//      give bitwise-identical results.
//
// Exit status: 0 iff no unit failed, the determinism check held and (traced)
// the replay matched; 1 otherwise; 2 on a usage error.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "layers.h"
#include "rstp/common/time.h"
#include "rstp/obs/json.h"
#include "workloads.h"

namespace {

using rstp::bench::MetricMap;
using rstp::bench::Rep;

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, reported by the untraced run.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"bits_per_s", "bit/s"},
    {"events_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"effort_ticks_per_bit", "ticks/bit"},
};

/// The per-layer metrics, reported by the traced run. A layer a workload
/// bypasses reports 0 calls and 0 ns.
constexpr MetricDef kLayerMetrics[] = {
    {"sim.steady_events_per_s", "1/s"},
    {"sim.multi_session.setup_ns_per_session", "ns"},
    {"sim.multi_session.residual_ns_per_event", "ns"},
    {"sim.multi_session.bytes_per_session", "B"},
    {"sim.simulator.advance.calls", "count"},
    {"sim.simulator.advance.ns_p50", "ns"},
    {"sim.simulator.advance.ns_p99", "ns"},
    {"sim.simulator.start.ns", "ns"},
    {"sim.simulator.next_instant.ns", "ns"},
    {"sim.simulator.take_result.ns", "ns"},
    {"sim.scheduler.next_gap.calls", "count"},
    {"sim.scheduler.next_gap.ns", "ns"},
    {"channel.policy_choose.calls", "count"},
    {"channel.policy_choose.ns", "ns"},
    {"channel.send.ns", "ns"},
    {"channel.collect_due.ns", "ns"},
    {"channel.in_flight_mean", "count"},
    {"protocols.make_protocol.ns_p50", "ns"},
    {"protocols.enabled_local.calls", "count"},
    {"protocols.enabled_local.ns", "ns"},
    {"protocols.apply.calls", "count"},
    {"protocols.apply.ns", "ns"},
    {"combinatorics.codec_ctor.cold_ns", "ns"},
    {"combinatorics.codec_ctor.warm_ns", "ns"},
    {"combinatorics.encode.calls", "count"},
    {"combinatorics.encode.ns", "ns"},
    {"combinatorics.decode.calls", "count"},
    {"combinatorics.decode.ns", "ns"},
    {"combinatorics.bits_to_biguint_ns", "ns"},
    {"combinatorics.biguint_to_bits_ns", "ns"},
    {"combinatorics.share", "fraction"},
    {"bigint.add_ns.l1", "ns"},
    {"bigint.add_ns.l2", "ns"},
    {"bigint.sub_ns.l1", "ns"},
    {"bigint.sub_ns.l2", "ns"},
    {"bigint.cmp_ns.l1", "ns"},
    {"bigint.cmp_ns.l2", "ns"},
    {"core.effort.run_protocol.ns_p50", "ns"},
    {"core.effort.run_protocol.ns_p99", "ns"},
    {"core.effort.run_protocol.setup_ns_p50", "ns"},
    {"core.effort.ticks_per_bit", "ticks/bit"},
    {"sim.campaign.overhead_ns_per_job", "ns"},
    {"sim.campaign.jobs_per_s.t2", "1/s"},
    {"core.verify.record_trace.ns_per_event", "ns"},
    {"core.verify.trace.bytes_per_event", "B"},
    {"core.verify.verify_trace.ns_per_event", "ns"},
    {"api.link.transfer.ns_p50", "ns"},
    {"api.link.overhead_ns", "ns"},
    {"bench.obs.timer_pair.ns", "ns"},
    {"bench.reconcile.residual_frac", "fraction"},
    {"bench.trace.overhead_frac", "fraction"},
};

/// Spans kept in memory for the Chrome trace; later calls still count.
constexpr std::size_t kSpanCapacity = 200'000;

/// Untimed repetitions (and probes) before the measurement.
constexpr int kWarmupReps = 10;

/// Traced replays per traced run; the fastest is reported.
constexpr int kReplays = 5;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool traced = false;
  std::string trace_out;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "bench_layers: " << message << "\n"
            << "usage: bench_layers --workload NAME --seed S [--seconds N]\n"
            << "                    [--traced [--trace-out PATH]]\n";
  std::exit(2);
}

/// Parses a whole token as a number of type T; any trailing character,
/// sign error or overflow is a usage error naming the token.
template <typename T>
T parse_number(std::string_view flag, std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc{} || ptr != end) {
    usage_error("bad value '" + std::string(token) + "' for " + std::string(flag));
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> std::string_view {
      if (i + 1 >= argc) usage_error("missing value for " + std::string(arg));
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = parse_number<std::uint64_t>(arg, value());
      have_seed = true;
    } else if (arg == "--seconds") {
      const std::string_view token = value();
      o.seconds = parse_number<double>(arg, token);
      if (!(o.seconds > 0 && o.seconds <= 3600)) {
        usage_error("bad value '" + std::string(token) + "' for --seconds (0 < N <= 3600)");
      }
    } else if (arg == "--traced") {
      o.traced = true;
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else {
      usage_error("unknown argument '" + std::string(arg) + "'");
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!have_seed) usage_error("--seed is required");
  if (!o.trace_out.empty() && !o.traced) usage_error("--trace-out needs --traced");
  return o;
}

/// Peak resident set of this process image. VmHWM, not getrusage: the
/// latter keeps the high-water mark of the image that exec'd this one (e.g.
/// a Python launcher), so it would report the parent's size for small runs.
double peak_rss_mb() {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      if (status >> kib) return kib / 1024.0;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string rep_json(const Rep& r) {
  using rstp::obs::json_number;
  std::ostringstream os;
  os << "{\"wall_s\":" << json_number(r.wall_s) << ",\"events\":" << r.events
     << ",\"bits_ok\":" << r.bits_ok << ",\"attempted\":" << r.attempted
     << ",\"failed\":" << r.failed << ",\"effort\":" << json_number(r.effort) << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto& names = rstp::bench::workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    usage_error("unknown workload '" + opt.workload + "'");
  }

  try {
    rstp::calibrate_host_clock();
    auto workload = rstp::bench::make_workload(opt.workload, opt.seed);
    for (int i = 0; i < kWarmupReps; ++i) {
      (void)workload->setup_probe();
      (void)workload->run(1);
    }

    // Other tenants of a shared host only ever add time: they take the core,
    // or share its caches and execution units, which slows the very same
    // repetition by up to ~1.5x for periods of milliseconds to tens of
    // seconds. A median moves with those periods; the fastest of thousands
    // of short repetitions does not, as long as one of them ran alone.
    Rep best;  // the fastest repetition
    best.wall_s = std::numeric_limits<double>::infinity();
    double setup_s = std::numeric_limits<double>::infinity();  // the fastest probe
    std::uint64_t repetitions = 0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    const auto end =
        std::chrono::steady_clock::now() + std::chrono::duration<double>(opt.seconds);
    do {
      setup_s = std::min(setup_s, workload->setup_probe());
      const Rep r = workload->run(1);
      ++repetitions;
      attempted += r.attempted;
      failed += r.failed;
      if (r.wall_s < best.wall_s) best = r;
    } while (std::chrono::steady_clock::now() < end);

    MetricMap values;
    std::optional<bool> replay_equal;
    std::size_t spans = 0;
    std::uint64_t dropped_spans = 0;
    const MetricDef* defs = kEndToEnd;
    std::size_t def_count = std::size(kEndToEnd);

    if (!opt.traced) {
      values["setup_s"] = setup_s;
      values["bits_per_s"] = static_cast<double>(best.bits_ok) / best.wall_s;
      values["events_per_s"] = static_cast<double>(best.events) / best.wall_s;
      values["peak_rss_mb"] = peak_rss_mb();
      values["effort_ticks_per_bit"] = best.effort;
    } else {
      defs = kLayerMetrics;
      def_count = std::size(kLayerMetrics);
      for (const MetricDef& d : kLayerMetrics) values[d.name] = 0;
      // The fastest of several replays is reported, as `best` is the fastest
      // repetition: one replay alone lands in a slow period as often as not.
      std::optional<rstp::bench::SpanRecorder> recorder;
      rstp::bench::TracedResult traced;
      const MetricMap zeros = values;
      for (int i = 0; i < kReplays; ++i) {
        rstp::bench::SpanRecorder candidate{kSpanCapacity};
        MetricMap candidate_values = zeros;
        const rstp::bench::TracedResult result =
            workload->traced(candidate, best, setup_s, candidate_values);
        replay_equal = replay_equal.value_or(true) && result.replay_equal;
        if (!recorder || result.wall_s < traced.wall_s) {
          recorder.emplace(std::move(candidate));
          traced = result;
          values = std::move(candidate_values);
        }
      }
      const rstp::bench::BigintCost big = rstp::bench::measure_bigint();
      values["bigint.add_ns.l1"] = big.add_l1;
      values["bigint.add_ns.l2"] = big.add_l2;
      values["bigint.sub_ns.l1"] = big.sub_l1;
      values["bigint.sub_ns.l2"] = big.sub_l2;
      values["bigint.cmp_ns.l1"] = big.cmp_l1;
      values["bigint.cmp_ns.l2"] = big.cmp_l2;
      values["bench.obs.timer_pair.ns"] = recorder->cost().pair_ns;
      // A difference of two times: 0 where set-up is most of the repetition
      // (campaign_short), which would leave only the noise.
      const double steady_s = best.wall_s - setup_s;
      values["sim.steady_events_per_s"] =
          steady_s > 0.5 * best.wall_s ? static_cast<double>(best.events) / steady_s : 0;
      const double wall_ns = best.wall_s * 1e9;
      values["bench.reconcile.residual_frac"] = 1.0 - traced.explained_ns / wall_ns;
      values["bench.trace.overhead_frac"] = traced.wall_s / best.wall_s - 1.0;
      spans = recorder->span_count();
      dropped_spans = recorder->dropped();
      if (!opt.trace_out.empty()) {
        std::ofstream out{opt.trace_out};
        recorder->write_chrome_trace(out, opt.workload);
        if (!out) {
          std::cerr << "bench_layers: cannot write '" << opt.trace_out << "'\n";
          return 1;
        }
      }
    }
    // Last, after peak_rss_mb is read: the peak of a 2-thread run depends on
    // how far its threads' work overlapped.
    const bool deterministic = workload->deterministic();

    using rstp::obs::json_number;
    using rstp::obs::json_quote;
    std::ostringstream os;
    os << "{\"schema\":\"rstp-bench-layers-v2\",\"workload\":" << json_quote(opt.workload)
       << ",\"traced\":" << (opt.traced ? "true" : "false") << ",\"provenance\":{\"compiler\":"
       << json_quote(compiler()) << ",\"build_type\":" << json_quote(RSTP_BENCH_BUILD_TYPE)
       << ",\"hardware_threads\":" << std::thread::hardware_concurrency()
       << ",\"clock_source\":" << json_quote(rstp::to_string(rstp::host_clock_source()))
       << ",\"seed\":" << opt.seed << ",\"seconds\":" << json_number(opt.seconds)
       << "},\"deterministic\":" << (deterministic ? "true" : "false") << ",\"replay_equal\":"
       << (replay_equal.has_value() ? (*replay_equal ? "true" : "false") : "null")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed
       << ",\"repetitions\":" << repetitions << ",\"best_rep\":" << rep_json(best)
       << ",\"best_setup_s\":" << json_number(setup_s);
    if (opt.traced) os << ",\"spans\":" << spans << ",\"dropped_spans\":" << dropped_spans;
    os << ",\"metrics\":{";
    for (std::size_t i = 0; i < def_count; ++i) {
      const double v = values.at(defs[i].name);
      if (!std::isfinite(v)) {
        std::cerr << "bench_layers: metric " << defs[i].name << " is not finite\n";
        return 1;
      }
      os << (i ? "," : "") << json_quote(defs[i].name) << ":{\"value\":" << json_number(v)
         << ",\"unit\":" << json_quote(defs[i].unit) << "}";
    }
    os << "}}";

    // The report must be valid JSON for the library's own reader.
    const std::string report = os.str();
    (void)rstp::obs::parse_json(report);
    std::cout << report << std::endl;

    const bool ok = failed == 0 && deterministic && replay_equal.value_or(true);
    if (!ok) {
      std::cerr << "bench_layers: " << opt.workload << ": " << failed << " of " << attempted
                << " failed" << (deterministic ? "" : ", 1/2-thread results differ")
                << (replay_equal.value_or(true) ? "" : ", traced replay differs") << "\n";
    }
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "bench_layers: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
}
