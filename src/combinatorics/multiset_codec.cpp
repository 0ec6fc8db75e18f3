#include "rstp/combinatorics/multiset_codec.h"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "rstp/common/check.h"
#include "rstp/obs/metrics.h"

namespace rstp::combinatorics {

using bigint::BigUint;

Multiset::Multiset(std::uint32_t k) : counts_(k, 0) {
  RSTP_CHECK_GE(k, 1u, "multiset universe must be non-empty");
}

Multiset Multiset::from_symbols(std::uint32_t k, std::span<const Symbol> symbols) {
  Multiset m{k};
  for (Symbol s : symbols) {
    m.add(s);
  }
  return m;
}

Multiset Multiset::from_counts(std::vector<std::uint32_t> counts) {
  RSTP_CHECK_GE(counts.size(), 1u, "multiset universe must be non-empty");
  Multiset m;
  m.counts_ = std::move(counts);
  for (const std::uint32_t c : m.counts_) {
    m.size_ += c;
  }
  return m;
}

std::uint32_t Multiset::count(Symbol s) const {
  RSTP_CHECK_LT(s, universe(), "symbol outside universe");
  return counts_[s];
}

void Multiset::add(Symbol s) {
  RSTP_CHECK_LT(s, universe(), "symbol outside universe");
  ++counts_[s];
  ++size_;
}

void Multiset::remove(Symbol s) {
  RSTP_CHECK_LT(s, universe(), "symbol outside universe");
  RSTP_CHECK_GT(counts_[s], 0u, "removing absent symbol");
  --counts_[s];
  --size_;
}

void Multiset::clear() {
  std::fill(counts_.begin(), counts_.end(), 0u);
  size_ = 0;
}

std::vector<Symbol> Multiset::to_sorted_sequence() const {
  std::vector<Symbol> seq;
  seq.reserve(size_);
  for (Symbol s = 0; s < universe(); ++s) {
    seq.insert(seq.end(), counts_[s], s);
  }
  return seq;
}

bool Multiset::submultiset_of(const Multiset& other) const {
  RSTP_CHECK_EQ(universe(), other.universe(), "submultiset over different universes");
  for (Symbol s = 0; s < universe(); ++s) {
    if (counts_[s] > other.counts_[s]) return false;
  }
  return true;
}

// The shared per-(k, n) tables.
//   mu[j][L]   = μ_j(L), the number of non-decreasing length-L sequences over
//                a j-symbol universe (Pascal-style recurrence, exact adds).
//   cum[L][c]  = Σ_{c'=0}^{c-1} μ_{k-c'}(L) — the cumulative suffix counts,
//                indexed by symbol boundary c in [0..k]; cum[L][0] = 0.
//   stay[L][c] = μ_{k-c}(L), i.e. cum[L][c+1] − cum[L][c]: the same suffix
//                counts as mu but laid out row-per-L, so rank's single-step
//                fast path reads the row its cum lookups already cached.
//   mu_word    = mu flattened row-major (stride n+1) as machine words, filled
//                only when μ_k(n) < 2^64 (then every entry fits, as mu is
//                monotone in both j and L); empty otherwise.
// rank sums μ_{k-c}(L) over a symbol interval, which the cumulative table
// turns into one subtraction; unrank decodes whole runs of equal symbols by
// galloping over the (monotone) mu and cum rows.
struct MultisetTables {
  std::vector<std::vector<BigUint>> mu;
  std::vector<std::vector<BigUint>> cum;
  std::vector<std::vector<BigUint>> stay;
  std::vector<std::uint64_t> mu_word;
};

namespace {

[[nodiscard]] std::shared_ptr<const MultisetTables> build_tables(std::uint32_t k,
                                                                 std::uint32_t n) {
  auto tables = std::make_shared<MultisetTables>();
  tables->mu.assign(k + 1, std::vector<BigUint>(n + 1));
  for (std::uint32_t j = 0; j <= k; ++j) {
    tables->mu[j][0] = BigUint{1};  // the empty sequence
  }
  for (std::uint32_t L = 1; L <= n; ++L) {
    tables->mu[0][L] = BigUint{};  // no non-empty sequence over an empty universe
    for (std::uint32_t j = 1; j <= k; ++j) {
      tables->mu[j][L] = tables->mu[j - 1][L] + tables->mu[j][L - 1];
    }
  }
  tables->cum.assign(n + 1, std::vector<BigUint>(k + 1));
  tables->stay.assign(n + 1, std::vector<BigUint>(k));
  for (std::uint32_t L = 0; L <= n; ++L) {
    for (std::uint32_t c = 0; c < k; ++c) {
      tables->cum[L][c + 1] = tables->cum[L][c] + tables->mu[k - c][L];
      tables->stay[L][c] = tables->mu[k - c][L];
    }
  }
  if (tables->mu[k][n].fits_u64()) {
    tables->mu_word.reserve(std::size_t{k + 1} * (n + 1));
    for (const std::vector<BigUint>& row : tables->mu) {
      for (const BigUint& v : row) tables->mu_word.push_back(v.to_u64());
    }
  }
  return tables;
}

/// Process-wide intern cache: every codec (block coder, protocol instance,
/// campaign job) with the same (k, n) shares one immutable table. weak_ptr
/// entries let tables of retired parameter points be reclaimed. Guarded by a
/// mutex because campaign workers construct protocols concurrently; the
/// build happens under the lock so racing workers wait for one build instead
/// of duplicating it.
[[nodiscard]] std::shared_ptr<const MultisetTables> interned_tables(std::uint32_t k,
                                                                    std::uint32_t n) {
  static std::mutex mutex;
  static std::map<std::pair<std::uint32_t, std::uint32_t>, std::weak_ptr<const MultisetTables>>
      cache;
  const std::scoped_lock lock{mutex};
  std::weak_ptr<const MultisetTables>& slot = cache[{k, n}];
  if (std::shared_ptr<const MultisetTables> cached = slot.lock()) {
    return cached;
  }
  std::shared_ptr<const MultisetTables> built = build_tables(k, n);
  slot = built;
  return built;
}

}  // namespace

MultisetCodec::MultisetCodec(std::uint32_t k, std::uint32_t n) : k_(k), n_(n) {
  RSTP_CHECK_GE(k, 1u, "codec universe must be non-empty");
  tables_ = interned_tables(k, n);
}

const BigUint& MultisetCodec::count() const { return tables_->mu[k_][n_]; }

const BigUint& MultisetCodec::suffix_count(std::uint32_t j, std::uint32_t L) const {
  return tables_->mu[j][L];
}

BigUint MultisetCodec::rank(const Multiset& m) const {
  // Nests under proto_apply/proto_enabled when a protocol encodes mid-step,
  // so --timing attributes sim-step time to the codec work it contains.
  const obs::ScopedPhaseTimer timer{obs::Phase::CodecRank};
  RSTP_CHECK_EQ(m.universe(), k_, "multiset universe mismatch");
  RSTP_CHECK_EQ(m.size(), n_, "multiset size mismatch");
  // Walk the count vector directly — only the (at most min(k, n)) positions
  // where the sorted sequence changes symbol contribute to the rank, so no
  // materialized sequence is needed.
  BigUint rank;
  Symbol prev = 0;
  std::uint32_t pos = 0;
  for (Symbol s = 0; s < k_; ++s) {
    const std::uint32_t cnt = m.count(s);
    if (cnt == 0) continue;
    if (s != prev) {
      const std::uint32_t remaining = n_ - 1 - pos;
      // Sequences that agree on the prefix but put a smaller symbol c ∈
      // [prev, s) at this position can complete in μ_{k-c}(remaining) ways.
      if (s == prev + 1) {
        rank += tables_->stay[remaining][prev];  // the sum is one term
      } else {
        const std::vector<BigUint>& cum = tables_->cum[remaining];
        rank += cum[s];
        rank -= cum[prev];
      }
      prev = s;
    }
    pos += cnt;
  }
  return rank;
}

Multiset MultisetCodec::unrank(const BigUint& value) const {
  const obs::ScopedPhaseTimer timer{obs::Phase::CodecUnrank};
  RSTP_CHECK(value < count(), "rank out of range for this codec");
  std::vector<std::uint32_t> counts(k_, 0);
  Symbol c = 0;
  if (!tables_->mu_word.empty()) {
    // Every count fits a machine word: the recurrence walk in word
    // arithmetic. c only advances, so the walk is O(n + k) in total.
    std::uint64_t residual = value.to_u64();
    const std::size_t stride = std::size_t{n_} + 1;
    for (std::uint32_t i = 0; i < n_; ++i) {
      const std::size_t remaining = n_ - 1 - i;
      while (residual >= tables_->mu_word[(k_ - c) * stride + remaining]) {
        residual -= tables_->mu_word[(k_ - c) * stride + remaining];
        ++c;
        RSTP_CHECK_LT(c, k_, "unrank overran the universe");
      }
      ++counts[c];
    }
    RSTP_CHECK(residual == 0, "unrank residual nonzero");
    return Multiset::from_counts(std::move(counts));
  }
  BigUint residual = value;
  const BigUint* mu_row = tables_->mu[k_].data();  // μ_{k-c}(·), hoisted per run
  for (std::uint32_t i = 0; i < n_; ++i) {
    const std::uint32_t remaining = n_ - 1 - i;
    // Stay test: position i repeats symbol c iff residual < μ_{k-c}(remaining).
    // This branch is strongly predicted (sorted sequences are mostly runs),
    // and mu_row walks one contiguous row backwards — no per-position
    // arithmetic and no per-element insert call.
    if (residual < mu_row[remaining]) {
      ++counts[c];
      continue;
    }
    // The symbol advances. Walk a couple of steps like the recurrence does
    // (short jumps are the common case) — on the stay row, contiguous in
    // the symbol axis — then switch to a galloping search over the
    // cumulative row so long jumps cost O(log jump) instead of O(jump).
    const std::vector<BigUint>& stay_row = tables_->stay[remaining];
    std::uint32_t walked = 0;
    while (true) {
      residual -= stay_row[c];
      ++c;
      RSTP_CHECK_LT(c, k_, "unrank overran the universe");
      if (residual < stay_row[c]) break;
      if (++walked < 2) continue;
      // Long jump: the symbol is the smallest c' > c with
      // cum[c'+1] > cum[c] + residual in the cumulative row's coordinates.
      const std::vector<BigUint>& cum = tables_->cum[remaining];
      residual += cum[c];
      Symbol lo = c + 1;
      Symbol hi = k_ - 1;
      for (Symbol step = 1; lo + step - 1 < hi; step *= 2) {
        const Symbol probe = lo + step - 1;
        if (cum[probe + 1] > residual) {
          hi = probe;
          break;
        }
        lo = probe + 1;
      }
      while (lo < hi) {
        const Symbol mid = lo + (hi - lo) / 2;
        if (cum[mid + 1] > residual) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      RSTP_CHECK(cum[lo + 1] > residual, "unrank overran the universe");
      residual -= cum[lo];
      c = lo;
      break;
    }
    mu_row = tables_->mu[k_ - c].data();
    ++counts[c];
  }
  RSTP_CHECK(residual.is_zero(), "unrank residual nonzero");
  return Multiset::from_counts(std::move(counts));
}

BigUint MultisetCodec::rank_reference(const Multiset& m) const {
  RSTP_CHECK_EQ(m.universe(), k_, "multiset universe mismatch");
  RSTP_CHECK_EQ(m.size(), n_, "multiset size mismatch");
  const std::vector<Symbol> seq = m.to_sorted_sequence();
  BigUint rank;
  Symbol prev = 0;
  for (std::uint32_t i = 0; i < n_; ++i) {
    const std::uint32_t remaining = n_ - 1 - i;
    for (Symbol c = prev; c < seq[i]; ++c) {
      rank += suffix_count(k_ - c, remaining);
    }
    prev = seq[i];
  }
  return rank;
}

Multiset MultisetCodec::unrank_reference(const BigUint& value) const {
  RSTP_CHECK(value < count(), "rank out of range for this codec");
  BigUint residual = value;
  Multiset m{k_};
  Symbol prev = 0;
  for (std::uint32_t i = 0; i < n_; ++i) {
    const std::uint32_t remaining = n_ - 1 - i;
    Symbol c = prev;
    while (true) {
      const BigUint& block = suffix_count(k_ - c, remaining);
      if (residual < block) break;
      residual -= block;
      ++c;
      RSTP_CHECK_LT(c, k_, "unrank overran the universe");
    }
    m.add(c);
    prev = c;
  }
  RSTP_CHECK(residual.is_zero(), "unrank residual nonzero");
  return m;
}

BigUint bits_to_biguint(std::span<const std::uint8_t> bits) {
  BigUint value;
  for (std::uint8_t b : bits) {
    RSTP_CHECK(b == 0 || b == 1, "bit values must be 0 or 1");
    value <<= 1;
    if (b != 0) value.add_u64(1);
  }
  return value;
}

std::vector<std::uint8_t> biguint_to_bits(const BigUint& value, std::size_t width) {
  RSTP_CHECK_LE(value.bit_length(), width, "value does not fit in the requested width");
  std::vector<std::uint8_t> bits(width, 0);
  for (std::size_t i = 0; i < width; ++i) {
    bits[width - 1 - i] = value.bit(i) ? 1 : 0;
  }
  return bits;
}

}  // namespace rstp::combinatorics
