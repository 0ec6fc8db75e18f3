// The perf baseline harness: runs the fixed reference campaign at 1/2/4/N
// threads, cross-checks that every thread count reproduces the serial
// CampaignResult bitwise, times the multiset-codec hot paths against the
// seed recurrence, and writes the machine-tracked BENCH_campaign.json
// (schema in docs/PERF.md). Exit code 0 iff every job was correct and every
// stage was deterministic, so CI can gate on it (label `bench`).
//
//   bench_campaign [--json PATH] [--iterations N]
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "rstp/common/parse.h"
#include "rstp/sim/campaign_bench.h"

int main(int argc, char** argv) {
  std::string json_path = "BENCH_campaign.json";
  rstp::sim::CampaignBenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--iterations" && i + 1 < argc) {
      // Zero iterations would divide by zero in the per-call timings.
      const auto n = rstp::parse_number<std::size_t>(argv[++i]);
      if (!n.has_value() || *n == 0) {
        std::cerr << "invalid --iterations '" << argv[i] << "': expected a positive integer\n";
        return 2;
      }
      options.codec_iterations = *n;
    } else {
      std::cerr << "usage: bench_campaign [--json PATH] [--iterations N]\n";
      return 2;
    }
  }

  try {
    const rstp::sim::CampaignBenchReport report = rstp::sim::run_campaign_bench(options);
    rstp::sim::print_campaign_bench(std::cout, report);
    std::ofstream out{json_path};
    if (!out) {
      std::cerr << "cannot open '" << json_path << "'\n";
      return 1;
    }
    rstp::sim::write_campaign_bench_json(out, report);
    std::cout << "baseline:   written to " << json_path << "\n";
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
