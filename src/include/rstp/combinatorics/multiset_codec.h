// Multisets over a k-symbol universe and the paper's toseq/tomulti maps.
//
// Section 3 postulates two functions without constructing them:
//   toseq_k(n)   : multi_k(n) → {0..k-1}^n        (a linearization)
//   tomulti_k(n) : {0,1}^⌊log μ_k(n)⌋ → multi_k(n) (an injection)
// This module supplies constructive, exact versions via a rank/unrank pair
// over multisets of size exactly n: multisets are ordered by the
// lexicographic order of their non-decreasing symbol sequence, and ranks are
// computed with exact BigUint binomial sums. The bijection means decoding is
// immune to any permutation of a block's packets — the property the β and γ
// protocols rely on for correctness over a reordering channel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "rstp/bigint/biguint.h"

namespace rstp::combinatorics {

/// A packet symbol: an element of the transmitter's alphabet {0, ..., k-1}.
using Symbol = std::uint32_t;

/// A multiset over the universe {0..k-1}, stored as per-symbol counts.
class Multiset {
 public:
  /// Empty multiset over a universe of `k` symbols (k >= 1).
  explicit Multiset(std::uint32_t k);

  /// Builds the multiset of a symbol sequence (any order).
  [[nodiscard]] static Multiset from_symbols(std::uint32_t k, std::span<const Symbol> symbols);

  /// Universe size k.
  [[nodiscard]] std::uint32_t universe() const { return static_cast<std::uint32_t>(counts_.size()); }

  /// Total number of elements (with multiplicity) — the paper's |A|.
  [[nodiscard]] std::uint32_t size() const { return size_; }

  /// mult(s, A): occurrences of symbol s. s must be < universe().
  [[nodiscard]] std::uint32_t count(Symbol s) const;

  /// Inserts one occurrence of s (the paper's A := A ∪ {s}).
  void add(Symbol s);

  /// Removes one occurrence of s; s must be present.
  void remove(Symbol s);

  /// Empties the multiset (the paper's A := ∅).
  void clear();

  /// toseq: the canonical (non-decreasing) linearization.
  [[nodiscard]] std::vector<Symbol> to_sorted_sequence() const;

  /// Submultiset test: every multiplicity of *this is ≤ that of `other`.
  [[nodiscard]] bool submultiset_of(const Multiset& other) const;

  friend bool operator==(const Multiset&, const Multiset&) = default;

 private:
  std::vector<std::uint32_t> counts_;
  std::uint32_t size_ = 0;
};

/// The precomputed counting tables shared by every codec instance with the
/// same (k, n): the μ-table of the Pascal-style recurrence plus its
/// per-length cumulative sums, in one flat array (see MultisetCodec).
/// Immutable once built, so instances on different threads may share one
/// safely.
struct MultisetTables;

/// Rank/unrank bijection between multi_k(n) and [0, μ_k(n)).
///
/// Construction: μ-table via the Pascal-style recurrence
/// μ_j(L) = μ_{j-1}(L) + μ_j(L-1), plus cumulative suffix-count sums
/// cum_L(c) = Σ_{c'<c} μ_{k-c'}(L), for L < n. Both live in one flat
/// allocation of fixed-width integers: W = limbs of μ_k(n) 64-bit words per
/// entry, since no entry exceeds μ_k(n). rank() and unrank() do width-W word
/// arithmetic on a local accumulator, whose most significant word stays in a
/// register, and convert to BigUint only at the interface; one code path
/// serves every W. rank() costs at most one add and
/// one subtract per symbol change (none for repeats), unrank() one
/// comparison per repeated symbol plus a galloping search per change —
/// O(n + min(k, n) log k) W-word operations instead of the recurrence walk's
/// O(n·k) worst case.
///
/// The tables are interned in a process-wide cache keyed on (k, n) that holds
/// strong references, so constructing many codecs for the same parameters
/// (one per block/protocol instance, or one per campaign job, even after the
/// previous job's codecs are gone) builds them once. The cache evicts least
/// recently used tables past kTableCacheBytes; a live codec keeps its own
/// reference, so eviction never invalidates it.
class MultisetCodec {
 public:
  /// Byte budget of the intern cache: past it, the least recently used
  /// tables leave the cache (and are rebuilt if a codec needs them again).
  static constexpr std::size_t kTableCacheBytes = std::size_t{4} << 20;

  /// The largest universe whose smallest tables (blocks of one symbol:
  /// 2k + 1 entries of one word) fit in kTableCacheBytes. Tables grow with k
  /// at every block size n >= 1, so no table of a larger universe is ever
  /// cached, and one near k = 2^32 would take tens of GiB: the constructor
  /// rejects a larger k.
  static constexpr std::uint32_t kMaxUniverse =
      static_cast<std::uint32_t>((kTableCacheBytes / sizeof(std::uint64_t) - 1) / 2);

  /// The largest (k, n) tables the constructor builds. They hold (2k + 1)·n
  /// entries of W words, however short the input, so a long block would
  /// otherwise allocate without bound (δ = 3·10^7 over k = 4 is 4.3 GB). The
  /// largest tables the fuzzer and the megasession reach at an accepted k
  /// (k = kMaxUniverse, n = 16: about 270 MB) fit.
  static constexpr std::size_t kMaxTableBytes = std::size_t{512} << 20;

  /// True when 1 <= k <= kMaxUniverse and the (k, n) tables fit in
  /// kMaxTableBytes; allocates nothing.
  [[nodiscard]] static bool tables_fit(std::uint32_t k, std::uint32_t n);

  /// Requires 1 <= k <= kMaxUniverse, n >= 0 and tables_fit(k, n), checked
  /// before the tables are allocated.
  MultisetCodec(std::uint32_t k, std::uint32_t n);

  [[nodiscard]] std::uint32_t universe() const { return k_; }
  [[nodiscard]] std::uint32_t block_size() const { return n_; }

  /// μ_k(n): the number of codable multisets.
  [[nodiscard]] const bigint::BigUint& count() const;

  /// Rank of a multiset in [0, μ_k(n)). Requires m.universe()==k, m.size()==n.
  [[nodiscard]] bigint::BigUint rank(const Multiset& m) const;

  /// Inverse of rank(). Requires value < μ_k(n). The multiset of
  /// unrank_sorted()'s symbols.
  [[nodiscard]] Multiset unrank(const bigint::BigUint& value) const;

  /// unrank()'s one algorithm: writes the multiset of rank `value` straight
  /// into `out` as its n symbols in non-decreasing order (toseq ∘ unrank),
  /// with no count vector or Multiset in between. Requires value < μ_k(n)
  /// and out.size() == n.
  void unrank_sorted(const bigint::BigUint& value, std::span<Symbol> out) const;

  /// The original O(n·k) recurrence-walk implementations, kept as the
  /// differential-testing and benchmarking reference for the cumulative-table
  /// fast paths above. Semantically identical to rank()/unrank().
  [[nodiscard]] bigint::BigUint rank_reference(const Multiset& m) const;
  [[nodiscard]] Multiset unrank_reference(const bigint::BigUint& value) const;

 private:
  std::uint32_t k_;
  std::uint32_t n_;
  std::shared_ptr<const MultisetTables> tables_;  // interned per (k, n)
};

/// Converts a bit string (MSB first) to the integer it denotes. Packs the
/// limbs in stack scratch for up to 512 bits.
[[nodiscard]] bigint::BigUint bits_to_biguint(std::span<const std::uint8_t> bits);

/// Renders `value` as exactly `width` bits, MSB first. Requires
/// value < 2^width.
[[nodiscard]] std::vector<std::uint8_t> biguint_to_bits(const bigint::BigUint& value,
                                                        std::size_t width);

}  // namespace rstp::combinatorics
