// paper_claims: the paper's quantitative claims as 16 self-checking
// experiments (E1–E17 of DESIGN.md §4; E9 is the bench_coder timing
// harness).
//
//   paper_claims          runs all 16 in E-order
//   paper_claims E13      runs one
//
// Exits 0 when every row of every table checks, 1 on a FAIL row or an
// exception an experiment throws, and 2 on an unknown ID. Each experiment's
// stdout is pinned to tests/golden/paper/E<n>.txt (ctest -L paper).
#include <exception>
#include <string_view>

#include "paper_claims.h"

namespace rstp::bench {

constexpr struct {
  std::string_view id;
  bool (*run)();
} kExperiments[] = {
    {"E1", e1_alpha_effort},   {"E2", e2_beta_effort},       {"E3", e3_gamma_effort},
    {"E4", e4_bounds_passive}, {"E5", e5_bounds_active},     {"E6", e6_crossover},
    {"E7", e7_adversary},      {"E8", e8_altbit_baseline},   {"E10", e10_ablation},
    {"E11", e11_general},      {"E12", e12_distinguisher},   {"E13", e13_unbounded},
    {"E14", e14_convergence},  {"E15", e15_environments},    {"E16", e16_windowed},
    {"E17", e17_estimator},
};

}  // namespace rstp::bench

int main(int argc, char** argv) {
  const std::string_view only = argc == 2 ? argv[1] : "";
  bool ran = false;
  bool all_ok = true;
  for (const auto& e : rstp::bench::kExperiments) {
    if (argc > 2 || (argc == 2 && e.id != only)) continue;
    ran = true;
    try {
      all_ok = e.run() && all_ok;
    } catch (const std::exception& error) {
      std::fflush(stdout);
      std::fprintf(stderr, "%s: error: %s\n", e.id.data(), error.what());
      all_ok = false;
    }
  }
  if (!ran) {
    if (argc == 2) std::fprintf(stderr, "paper_claims: unknown experiment '%s'\n", argv[1]);
    std::fprintf(stderr, "usage: paper_claims [ID]; valid IDs:");
    for (const auto& e : rstp::bench::kExperiments) std::fprintf(stderr, " %s", e.id.data());
    std::fputc('\n', stderr);
    return 2;
  }
  return all_ok ? 0 : 1;
}
