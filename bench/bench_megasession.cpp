// The megasession perf baseline: drives sim::MultiSession at three session
// counts (10k / 100k / 1M by default) and writes the sustained
// simulated-events-per-second figures to the machine-tracked
// BENCH_megasession.json (schema in docs/PERF.md). The smallest stage also
// reruns at 2 threads and cross-checks the fold against the serial run
// (same_simulation), so the baseline doubles as a determinism gate. Exit
// code 0 iff every stage was all-correct and the cross-check held.
//
// Input bits shrink as the session count grows (64 → 16 → 4): the point of
// the large stages is scheduler/arena overhead per *event* at scale, not
// per-session protocol work, and this keeps the full sweep tractable on one
// core. --quick runs a single 2k-session stage for the CTest entry.
//
//   bench_megasession [--json PATH] [--quick] [--threads N]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "rstp/common/parse.h"
#include "rstp/obs/json.h"
#include "rstp/sim/multi_session.h"

namespace {

struct StageSpec {
  std::uint64_t sessions = 0;
  std::uint32_t shards = 16;
  std::uint32_t input_bits = 64;
};

struct StageResult {
  StageSpec spec;
  rstp::sim::MultiSessionResult result;
  bool deterministic = true;  ///< only checked on the first stage
};

rstp::sim::MultiSessionSpec stage_spec(const StageSpec& stage) {
  rstp::sim::MultiSessionSpec spec = rstp::sim::golden_megasession_spec();
  spec.sessions = stage.sessions;
  spec.shards = stage.shards;
  spec.input_bits = stage.input_bits;
  return spec;
}

void write_json(std::ostream& os, const std::vector<StageResult>& stages, unsigned threads) {
  os << "{\"schema\":\"rstp-bench-megasession-v1\",\"threads\":" << threads << ",\"stages\":[";
  bool first = true;
  for (const StageResult& s : stages) {
    if (!first) os << ",";
    first = false;
    os << "{\"sessions\":" << s.result.sessions << ",\"shards\":" << s.spec.shards
       << ",\"input_bits\":" << s.spec.input_bits
       << ",\"total_events\":" << s.result.total_events
       << ",\"elapsed_seconds\":" << rstp::obs::json_number(s.result.elapsed_seconds)
       << ",\"events_per_sec\":" << rstp::obs::json_number(s.result.events_per_sec)
       << ",\"mean_effort\":" << rstp::obs::json_number(s.result.effort.mean)
       << ",\"correct\":" << (s.result.all_correct() ? "true" : "false")
       << ",\"deterministic\":" << (s.deterministic ? "true" : "false") << "}";
  }
  os << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_megasession.json";
  bool quick = false;
  unsigned threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    } else if (arg == "--threads" && i + 1 < argc) {
      const auto n = rstp::parse_number<unsigned>(argv[++i]);
      if (!n.has_value()) {
        std::cerr << "invalid --threads '" << argv[i]
                  << "': expected a non-negative integer (0 = all cores)\n";
        return 2;
      }
      threads = *n;
    } else {
      std::cerr << "usage: bench_megasession [--json PATH] [--quick] [--threads N]\n";
      return 2;
    }
  }

  std::vector<StageSpec> stages;
  if (quick) {
    stages.push_back(StageSpec{2'000, 16, 32});
  } else {
    stages.push_back(StageSpec{10'000, 16, 64});
    stages.push_back(StageSpec{100'000, 64, 16});
    stages.push_back(StageSpec{1'000'000, 256, 4});
  }

  try {
    bool ok = true;
    std::vector<StageResult> results;
    results.reserve(stages.size());
    for (const StageSpec& stage : stages) {
      StageResult r;
      r.spec = stage;
      const rstp::sim::MultiSession mega{stage_spec(stage)};
      r.result = mega.run(threads);
      if (results.empty()) {
        // Determinism cross-check on the cheapest stage: a 2-thread rerun
        // must reproduce the serial session-order fold exactly.
        const rstp::sim::MultiSessionResult threaded = mega.run(2);
        r.deterministic = r.result.same_simulation(threaded);
      }
      ok = ok && r.result.all_correct() && r.deterministic;
      std::cout << "mega " << r.result.sessions << " sessions (" << stage.shards << " shards, "
                << stage.input_bits << " bits): " << r.result.total_events << " events, "
                << r.result.events_per_sec << " events/sec"
                << (r.result.all_correct() ? "" : " [INCORRECT]")
                << (r.deterministic ? "" : " [NONDETERMINISTIC]") << "\n";
      results.push_back(std::move(r));
    }

    std::ofstream out{json_path};
    if (!out) {
      std::cerr << "cannot open '" << json_path << "'\n";
      return 1;
    }
    write_json(out, results, threads);
    std::cout << "baseline: written to " << json_path << "\n";
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
