// E10 — ablation of A^β's design choices (the knobs DESIGN.md calls out):
//
// (a) The idle phase. Figure 3 inserts δ idle steps between blocks so blocks
//     cannot mix in flight. Ablating it (wait < ⌈d/c1⌉) keeps the protocol
//     *faster* but breaks the block-separation argument. A single simulated
//     environment cannot certify either side, so the sweep runs the
//     bounded-exhaustive explorer: it verifies safety over ALL admissible
//     schedules or exhibits a corrupting one. Finding: in this discrete
//     model (simultaneous deliveries keep send order) the exact threshold is
//     wait = ⌈d/c1⌉ − 1 — consecutive blocks' sends end up exactly d apart,
//     which ties but cannot overtake; the paper's ⌈d/c1⌉ is the right bound
//     when ties may resolve either way (the continuous reading). One wait
//     step below that, the explorer finds the corrupting reordering.
//
// (b) The block size. Lemma 6.1 uses block = δ1; correctness only needs the
//     wait, so one might hope bigger blocks amortize the idle phase. They
//     don't: for fixed k, μ_k(n) is only polynomial in n, so bits-per-packet
//     *fall* as blocks grow and effort rises past block = δ1 — the paper's
//     choice is the sweet spot, not just what the lower-bound argument needs.
#include "paper_claims.h"
#include "rstp/combinatorics/binomial.h"
#include "rstp/core/bounds.h"
#include "rstp/core/effort.h"

bool rstp::bench::e10_ablation() {
  using core::Environment;
  using protocols::ProtocolKind;

  const auto params = core::TimingParams::make(1, 1, 3);  // c1=c2=1, d=3 (explorable)
  const std::int64_t paper_threshold = params.delta1_wait();      // 3
  const std::int64_t discrete_threshold = paper_threshold - 1;    // tie rule: 2

  print_header(
      "E10a: ablating beta's idle phase — exhaustive over all schedules (c1=c2=1, d=3, k=3)");
  std::printf("%6s | %10s %10s %12s %8s\n", "wait", "states", "verdict", "mode", "check");
  print_rule(60);
  bool all_ok = true;
  for (const std::uint32_t wait : {1u, 2u, 3u, 4u}) {
    protocols::ProtocolConfig cfg;
    cfg.params = params;
    cfg.k = 3;
    cfg.input = core::make_random_input(8, 99);  // 2 blocks of B=4 bits (mu_3(3)=10)
    cfg.wait_steps_override = wait;

    bool safe = true;
    const char* mode = "prefix";
    std::uint64_t states = 0;
    try {
      const ioa::ExplorerResult r = core::explore_transfer(ProtocolKind::Beta, cfg);
      states = r.distinct_states;
      safe = r.verified();
    } catch (const ModelError&) {
      // Mixed blocks formed a non-codeword multiset: also a safety failure.
      safe = false;
      mode = "decode";
    }
    const bool expected_safe = static_cast<std::int64_t>(wait) >= discrete_threshold;
    const bool ok = safe == expected_safe;
    all_ok = all_ok && ok;
    const char* note = static_cast<std::int64_t>(wait) == discrete_threshold
                           ? "   <- discrete (tie-rule) threshold"
                           : (static_cast<std::int64_t>(wait) == paper_threshold
                                  ? "   <- paper's ceil(d/c1)"
                                  : "");
    std::printf("%6u | %10llu %10s %12s %8s%s\n", wait,
                static_cast<unsigned long long>(states), safe ? "SAFE" : "UNSAFE", mode,
                verdict(ok), note);
  }
  print_rule(60);

  print_header(
      "E10b: block size beyond delta1 does NOT amortize (c1=c2=1, d=8, wait=8, k=4)");
  std::printf("%6s %6s | %12s %12s %10s\n", "block", "B", "effort", "bits/round", "correct");
  print_rule(56);
  double delta1_effort = 0.0;
  for (const std::uint32_t block : {4u, 8u, 16u, 32u, 64u}) {
    protocols::ProtocolConfig cfg;
    cfg.params = core::TimingParams::make(1, 1, 8);
    cfg.k = 4;
    cfg.block_size_override = block;
    cfg.wait_steps_override = 8;
    const std::size_t B = combinatorics::floor_log2_mu(4, block);
    cfg.input = core::make_random_input(B * 24, block);
    const core::ProtocolRun run =
        core::run_protocol(ProtocolKind::Beta, cfg, Environment::worst_case());
    const double effort = core::effort_of(run, cfg.input.size()).effort;
    all_ok = all_ok && run.output_correct;
    if (block == 8) {
      delta1_effort = effort;  // the paper's choice (block = δ1)
    } else if (delta1_effort > 0) {
      all_ok = all_ok && effort >= delta1_effort - 1e-9;  // δ1 stays optimal
    }
    std::printf("%6u %6zu | %12.4f %12zu %10s%s\n", block, B, effort, B,
                run.output_correct ? "yes" : "NO",
                block == 8 ? "   <- paper's block = delta1 (optimal)" : "");
  }
  print_rule(56);

  print_header("E10c: gamma under ack-batching (delivery adversary also batches acks)");
  std::printf("%10s | %12s %12s %12s %10s\n", "delay", "effort", "paper_3d+c2", "queue_bound",
              "correct");
  print_rule(66);
  {
    const auto p2 = core::TimingParams::make(1, 2, 8);
    const core::BoundsReport bounds = core::compute_bounds(p2, 8);
    const std::size_t n = bounds.gamma_bits_per_block * 48;
    for (const auto delay : {Environment::Delay::Max, Environment::Delay::Random,
                             Environment::Delay::Adversarial}) {
      Environment env = Environment::worst_case();
      env.delay = delay;
      env.seed = 9;
      const auto m = core::measure_effort(ProtocolKind::Gamma, p2, 8, n, env);
      const char* name = delay == Environment::Delay::Max        ? "max(fifo)"
                         : delay == Environment::Delay::Random   ? "random"
                                                                 : "batching";
      // Queueing-aware ceiling: 2d + δ2·c2 + c2 + c2 per block.
      const double queue_bound =
          (2.0 * 8 + static_cast<double>(p2.delta2()) * 2 + 2 + 2) /
          static_cast<double>(bounds.gamma_bits_per_block);
      all_ok = all_ok && m.output_correct && m.effort <= queue_bound * (1 + 1e-9);
      std::printf("%10s | %12.4f %12.4f %12.4f %10s\n", name, m.effort, bounds.gamma_upper,
                  queue_bound, m.output_correct ? "yes" : "NO");
    }
  }
  print_rule(66);
  std::printf("E10 verdict: %s — wait threshold exact; block=delta1 optimal; gamma robust to "
              "delivery adversaries\n",
              verdict(all_ok));
  return all_ok;
}
