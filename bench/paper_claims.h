// The experiments paper_claims runs, and their shared helpers.
//
// Each bench_*.cpp regenerates one experiment from DESIGN.md §4 and prints
// a fixed-width table: the paper's closed-form prediction next to the
// measured value, so the reproduction claim (same shape, same winners, same
// crossovers) can be eyeballed directly and recorded in EXPERIMENTS.md.
#pragma once

#include <cstdarg>
#include <cstdio>

#include "rstp/protocols/factory.h"

namespace rstp::bench {

/// Prints a table's title, formatted as std::printf formats it.
[[gnu::format(printf, 1, 2)]] inline void print_header(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::printf("\n=== ");
  std::vprintf(format, args);
  std::printf(" ===\n");
  va_end(args);
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Marks a row value as OK/FAIL for quick scanning.
inline const char* verdict(bool ok) { return ok ? "ok" : "FAIL"; }

// The experiments, one per bench_*.cpp: each prints its tables and returns
// true iff every row checks.
bool e1_alpha_effort(), e2_beta_effort(), e3_gamma_effort(), e4_bounds_passive(),
    e5_bounds_active(), e6_crossover(), e7_adversary(), e8_altbit_baseline(), e10_ablation(),
    e11_general(), e12_distinguisher(), e13_unbounded(), e14_convergence(), e15_environments(),
    e16_windowed(), e17_estimator();

}  // namespace rstp::bench
