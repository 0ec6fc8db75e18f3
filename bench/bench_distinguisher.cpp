// E12 — the Theorem 5.3 counting argument, executed end to end.
//
// For exhaustive small n this harness computes every input's transmitter
// signature (the P^tr(X) window-multiset sequence of Lemma 5.1) for A^β(k)
// and tabulates:
//   * distinct signatures — must equal 2^n (Lemma 5.1: a correct protocol
//     distinguishes all inputs through the adversary's multiset lens);
//   * max ℓ(X) — the windows actually used;
//   * the counting floor ⌈n / log2(ζ_k(δ1)+1)⌉ — Theorem 5.3's minimum.
// Expected shape: distinct = 2^n on every row, measured ℓ ≥ floor, and the
// ratio ℓ/floor bounded by a constant (the same O(1) gap as E4).
#include <set>
#include <string>

#include "paper_claims.h"
#include "rstp/combinatorics/binomial.h"
#include "rstp/core/distinguisher.h"
#include "rstp/core/effort.h"
#include "rstp/protocols/beta.h"

bool rstp::bench::e12_distinguisher() {
  using ioa::Bit;

  const std::uint32_t k = 2;
  const auto params = core::TimingParams::make(1, 1, 3);
  const auto delta1 = static_cast<std::uint32_t>(params.delta1());

  print_header("E12: Lemma 5.1 / Thm 5.3 counting, executed (beta, k=2, delta1=3)");
  std::printf("zeta_%u(%u) = %s  → %.3f bits per window\n", k, delta1,
              combinatorics::zeta(k, delta1).to_decimal().c_str(),
              (combinatorics::zeta(k, delta1) + bigint::BigUint{1}).log2());
  std::printf("%4s | %10s %10s | %8s %8s %8s %8s\n", "n", "inputs", "distinct", "max_l",
              "floor_l", "ratio", "check");
  print_rule(68);

  bool all_ok = true;
  for (std::size_t n = 1; n <= 12; ++n) {
    std::set<std::string> signatures;
    std::size_t max_windows = 0;
    const std::size_t total = std::size_t{1} << n;
    for (std::size_t v = 0; v < total; ++v) {
      std::vector<Bit> x;
      x.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        x.push_back(static_cast<Bit>((v >> (n - 1 - i)) & 1u));
      }
      protocols::ProtocolConfig cfg;
      cfg.params = params;
      cfg.k = k;
      cfg.input = std::move(x);
      protocols::BetaTransmitter t{cfg};
      const core::TransmitterSignature sig = core::transmitter_signature(t, k, delta1);
      std::string key;
      for (const auto& w : sig.windows) {
        for (const auto s : w.to_sorted_sequence()) key += static_cast<char>('a' + s);
        key += '|';
      }
      signatures.insert(std::move(key));
      max_windows = std::max(max_windows, sig.windows.size());
    }
    const std::size_t floor_l = core::min_windows_for(n, k, delta1);
    const bool ok = signatures.size() == total && max_windows >= floor_l;
    all_ok = all_ok && ok;
    std::printf("%4zu | %10zu %10zu | %8zu %8zu %8.2f %8s\n", n, total, signatures.size(),
                max_windows, floor_l,
                static_cast<double>(max_windows) / static_cast<double>(floor_l),
                verdict(ok));
  }
  print_rule(68);
  std::printf("E12 verdict: %s — signatures injective (2^n distinct) and window counts above "
              "the Thm 5.3 floor\n",
              verdict(all_ok));
  return all_ok;
}
