#include "rstp/combinatorics/multiset_codec.h"

#include <algorithm>
#include <array>
#include <list>
#include <map>
#include <mutex>
#include <utility>

#include "rstp/combinatorics/binomial.h"
#include "rstp/common/check.h"

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

// The shared per-(k, n) tables: one flat array of fixed-width integers.
// Every entry is W = limbs(μ_k(n)) little-endian 64-bit words (W >= 1), and
// no entry exceeds μ_k(n), so each fits:
//   mu(c, L)  = μ_{k-c}(L) for symbol c in [0, k), length L in [0, n): the
//               number of non-decreasing length-L sequences over {c..k-1}.
//               Symbol-major, so unrank's run test walks one row backwards.
//   cum(L)[c] = Σ_{c'<c} μ_{k-c'}(L) for L in [0, n), boundary c in [0, k]:
//               the cumulative suffix counts, row-major; cum(L)[0] = 0 and
//               cum(L)[k] = μ_k(L+1) <= μ_k(n).
// Only L < n is stored: rank and unrank read length n−1−i at position i.
// rank sums μ_{k-c}(L) over a symbol interval, which the cumulative row turns
// into one subtraction; unrank decodes a run of equal symbols with one
// comparison per position against mu and finds each new symbol by galloping
// over the (monotone) cum row.
struct MultisetTables {
  std::uint32_t k = 0;
  std::uint32_t n = 0;
  std::size_t width = 0;  // W
  BigUint count;          // μ_k(n)
  std::vector<std::uint64_t> words;

  [[nodiscard]] std::size_t bytes() const {
    return sizeof(MultisetTables) + (words.size() + count.limbs().size()) * sizeof(std::uint64_t);
  }
};

namespace {

using u128 = unsigned __int128;

constexpr std::size_t kMaxTableWords = MultisetCodec::kMaxTableBytes / sizeof(std::uint64_t);

/// Words in the (k, n) tables at `width` words an entry: k·n mu entries and
/// n·(k + 1) cum entries.
[[nodiscard]] std::size_t table_words(std::uint32_t k, std::uint32_t n, std::size_t width) {
  return (2 * std::size_t{k} + 1) * n * width;
}

/// Where the entries of a MultisetTables live, as plain values. The codec's
/// loops keep one in a local: their word stores may alias the tables' own
/// size_t fields, so reading those through the tables would reload them on
/// every access.
struct Rows {
  explicit Rows(const MultisetTables& t)
      : mu_base(t.words.data()),
        cum_base(mu_base + std::size_t{t.k} * t.n * t.width),
        w(t.width),
        mu_stride(std::size_t{t.n} * w),
        cum_stride((std::size_t{t.k} + 1) * w) {}

  [[nodiscard]] const std::uint64_t* mu(Symbol c, std::uint32_t L) const {
    return mu_base + c * mu_stride + L * w;
  }
  [[nodiscard]] const std::uint64_t* cum(std::uint32_t L) const { return cum_base + L * cum_stride; }

  const std::uint64_t* mu_base;
  const std::uint64_t* cum_base;
  std::size_t w;
  std::size_t mu_stride;
  std::size_t cum_stride;
};

// Width-w arithmetic on little-endian words, w >= 1. The left operand is
// given as its most significant word `top` and the w − 1 words below it,
// `low`: the top words decide almost every comparison against a table entry,
// and rank/unrank keep `top` in a local, so it stays in a register. add and
// sub wrap modulo 2^(64w); every result the codec keeps is < μ_k(n) <
// 2^(64w).
void add_words(std::uint64_t& top, std::uint64_t* low, const std::uint64_t* x, std::size_t w) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i + 1 < w; ++i) {
    const u128 sum = u128{low[i]} + x[i] + carry;
    low[i] = static_cast<std::uint64_t>(sum);
    carry = static_cast<std::uint64_t>(sum >> 64);
  }
  top += x[w - 1] + carry;
}

void sub_words(std::uint64_t& top, std::uint64_t* low, const std::uint64_t* x, std::size_t w) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i + 1 < w; ++i) {
    const u128 diff = u128{low[i]} - x[i] - borrow;
    low[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 127);  // 1 iff it wrapped
  }
  top -= x[w - 1] + borrow;
}

[[nodiscard]] bool less_words(std::uint64_t top, const std::uint64_t* low, const std::uint64_t* x,
                              std::size_t w) {
  if (top != x[w - 1]) return top < x[w - 1];
  for (std::size_t i = w - 1; i-- > 0;) {
    if (low[i] != x[i]) return low[i] < x[i];
  }
  return false;
}

/// Zeroed scratch words for a rank or unrank call (W of them) or a bit
/// packing: on the stack up to 8 words, on the heap beyond.
class Accumulator {
 public:
  explicit Accumulator(std::size_t width) {
    if (width > local_.size()) heap_.assign(width, 0);
  }
  [[nodiscard]] std::uint64_t* data() { return heap_.empty() ? local_.data() : heap_.data(); }

 private:
  std::array<std::uint64_t, 8> local_{};
  std::vector<std::uint64_t> heap_;
};

/// unrank's long jump, from symbol c at length L with residual >=
/// μ_{k-c}(L): returns the smallest c' > c with cum[c'+1] > residual + cum[c]
/// in L's cumulative row `cum`, and leaves residual + cum[c] − cum[c'] in
/// the residual (`top`, `low`). Gallops from c+1, then bisects, so the jump
/// costs O(log jump).
Symbol gallop(const std::uint64_t* cum, std::uint64_t& top, std::uint64_t* low, Symbol c,
              std::uint32_t k, std::size_t w) {
  const auto boundary = [&](Symbol b) { return cum + std::size_t{b} * w; };
  add_words(top, low, boundary(c), w);
  Symbol lo = c + 1;
  Symbol hi = k - 1;
  for (Symbol step = 1; lo + step - 1 < hi; step *= 2) {
    const Symbol probe = lo + step - 1;
    if (less_words(top, low, boundary(probe + 1), w)) {
      hi = probe;
      break;
    }
    lo = probe + 1;
  }
  while (lo < hi) {
    const Symbol mid = lo + (hi - lo) / 2;
    if (less_words(top, low, boundary(mid + 1), w)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  RSTP_CHECK(lo < k && less_words(top, low, boundary(lo + 1), w), "unrank overran the universe");
  sub_words(top, low, boundary(lo), w);
  return lo;
}

[[nodiscard]] std::shared_ptr<const MultisetTables> build_tables(std::uint32_t k,
                                                                 std::uint32_t n) {
  // The size is checked before anything is allocated: first at one word an
  // entry, so an oversized block never pays for μ_k(n), then at its width.
  RSTP_CHECK_LE(table_words(k, n, 1), kMaxTableWords, "codec tables past kMaxTableBytes");
  auto tables = std::make_shared<MultisetTables>();
  MultisetTables& t = *tables;
  t.k = k;
  t.n = n;
  t.count = mu(k, n);
  t.width = std::max<std::size_t>(t.count.limbs().size(), 1);
  const std::size_t w = t.width;
  RSTP_CHECK_LE(table_words(k, n, w), kMaxTableWords, "codec tables past kMaxTableBytes");
  t.words.assign(table_words(k, n, w), 0);
  const Rows rows{t};
  // The entry rows.mu / rows.cum point at, in the same (mutable) words.
  const auto writable = [&](const std::uint64_t* entry) {
    return t.words.data() + (entry - rows.mu_base);
  };
  // μ_{k-c}(L) = μ_{k-c-1}(L) + μ_{k-c}(L-1), from the last symbol (whose
  // one-symbol universe has exactly one sequence of each length) down. A
  // table entry is its own accumulator: top is its last word, low the rest.
  for (Symbol c = k; c-- > 0;) {
    for (std::uint32_t L = 0; L < n; ++L) {
      std::uint64_t* entry = writable(rows.mu(c, L));
      if (L == 0 || c == k - 1) {
        entry[0] = 1;
        continue;
      }
      add_words(entry[w - 1], entry, rows.mu(c + 1, L), w);
      add_words(entry[w - 1], entry, rows.mu(c, L - 1), w);
    }
  }
  for (std::uint32_t L = 0; L < n; ++L) {
    std::uint64_t* row = writable(rows.cum(L));
    for (Symbol c = 0; c < k; ++c) {
      std::uint64_t* entry = row + std::size_t{c + 1} * w;
      std::copy_n(entry - w, w, entry);
      add_words(entry[w - 1], entry, rows.mu(c, L), w);
    }
  }
  return tables;
}

/// Process-wide intern cache: every codec (block coder, protocol instance,
/// campaign job) with the same (k, n) shares one immutable table, and the
/// cache keeps it alive between codecs, so a run of many short jobs builds
/// each point once. Entries are strong references, evicted least recently
/// used first once their total size passes kTableCacheBytes; a codec holds
/// its own reference, so eviction never invalidates a live table. Guarded by
/// a mutex because campaign workers construct protocols concurrently; the
/// build happens under the lock so racing workers wait for one build instead
/// of duplicating it.
class TableCache {
 public:
  [[nodiscard]] std::shared_ptr<const MultisetTables> get(std::uint32_t k, std::uint32_t n) {
    const std::scoped_lock lock{mutex_};
    if (const auto hit = index_.find({k, n}); hit != index_.end()) {
      lru_.splice(lru_.begin(), lru_, hit->second);
      return hit->second->second;
    }
    std::shared_ptr<const MultisetTables> built = build_tables(k, n);
    lru_.emplace_front(Key{k, n}, built);
    index_.emplace(Key{k, n}, lru_.begin());
    bytes_ += built->bytes();
    while (bytes_ > MultisetCodec::kTableCacheBytes) {
      bytes_ -= lru_.back().second->bytes();
      index_.erase(lru_.back().first);
      lru_.pop_back();
    }
    return built;
  }

 private:
  using Key = std::pair<std::uint32_t, std::uint32_t>;
  using Entry = std::pair<Key, std::shared_ptr<const MultisetTables>>;

  std::mutex mutex_;
  std::list<Entry> lru_;  // most recently used first
  std::map<Key, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
};

/// μ_{k-c}(L) — the number of non-decreasing length-L sequences over the
/// suffix universe {c..k-1} — as its significant limbs, for the reference
/// walks' BigUint arithmetic.
[[nodiscard]] std::span<const std::uint64_t> suffix_count(const Rows& rows, Symbol c,
                                                          std::uint32_t L) {
  const std::uint64_t* entry = rows.mu(c, L);
  std::size_t size = rows.w;
  while (size > 0 && entry[size - 1] == 0) --size;
  return {entry, size};
}

}  // namespace

bool MultisetCodec::tables_fit(std::uint32_t k, std::uint32_t n) {
  if (k < 1 || k > kMaxUniverse) return false;
  // Every entry is at least one word; only tables that fit at that width
  // pay for μ_k(n), whose cost grows with min(k, n).
  if (table_words(k, n, 1) > kMaxTableWords) return false;
  return table_words(k, n, std::max<std::size_t>(mu(k, n).limbs().size(), 1)) <= kMaxTableWords;
}

MultisetCodec::MultisetCodec(std::uint32_t k, std::uint32_t n) : k_(k), n_(n) {
  RSTP_CHECK_GE(k, 1u, "codec universe must be non-empty");
  RSTP_CHECK_LE(k, kMaxUniverse, "codec universe too large for its tables");
  static TableCache cache;
  tables_ = cache.get(k, n);
}

const BigUint& MultisetCodec::count() const { return tables_->count; }

BigUint MultisetCodec::rank(const Multiset& m) const {
  RSTP_CHECK_EQ(m.universe(), k_, "multiset universe mismatch");
  RSTP_CHECK_EQ(m.size(), n_, "multiset size mismatch");
  const Rows rows{*tables_};
  const std::size_t w = rows.w;
  std::uint64_t top = 0;
  Accumulator rank{w};  // the low words, then top at the end
  // Walk the count vector directly — only the (at most min(k, n)) positions
  // where the sorted sequence changes symbol contribute to the rank, so no
  // materialized sequence is needed.
  Symbol prev = 0;
  std::uint32_t pos = 0;
  for (Symbol s = 0; s < k_; ++s) {
    const std::uint32_t cnt = m.count(s);
    if (cnt == 0) continue;
    if (s != prev) {
      // Sequences that agree on the prefix but put a smaller symbol c ∈
      // [prev, s) at this position can complete in μ_{k-c}(remaining) ways:
      // one mu entry for a single step, else cum[s] − cum[prev] of the
      // remaining length's row (the add may wrap; the sum cannot).
      const std::uint32_t remaining = n_ - 1 - pos;
      if (s == prev + 1) {
        add_words(top, rank.data(), rows.mu(prev, remaining), w);
      } else {
        const std::uint64_t* cum = rows.cum(remaining);
        add_words(top, rank.data(), cum + std::size_t{s} * w, w);
        sub_words(top, rank.data(), cum + std::size_t{prev} * w, w);
      }
      prev = s;
    }
    pos += cnt;
  }
  rank.data()[w - 1] = top;
  return BigUint::from_limbs({rank.data(), w});
}

Multiset MultisetCodec::unrank(const BigUint& value) const {
  std::vector<Symbol> seq(n_);
  unrank_sorted(value, seq);
  return Multiset::from_symbols(k_, seq);
}

void MultisetCodec::unrank_sorted(const BigUint& value, std::span<Symbol> out) const {
  RSTP_CHECK(value < count(), "rank out of range for this codec");
  RSTP_CHECK_EQ(out.size(), std::size_t{n_}, "unrank output must hold exactly n symbols");
  const Rows rows{*tables_};
  const std::size_t w = rows.w;
  // The residual: its top word in a local, the w − 1 words below in `low`.
  Accumulator accumulator{w};
  std::uint64_t* low = accumulator.data();
  std::copy(value.limbs().begin(), value.limbs().end(), low);
  std::uint64_t top = low[w - 1];
  Symbol c = 0;
  const std::uint64_t* mu_row = rows.mu(0, 0);  // μ_{k-c}(·), hoisted per run
  for (std::uint32_t i = 0; i < n_; ++i) {
    const std::uint32_t remaining = n_ - 1 - i;
    // Run test: position i repeats symbol c iff residual < μ_{k-c}(remaining).
    // This branch is strongly predicted (sorted sequences are mostly runs),
    // and mu_row walks one contiguous row backwards.
    if (less_words(top, low, mu_row + std::size_t{remaining} * w, w)) {
      out[i] = c;
      continue;
    }
    // The symbol advances. Walk a couple of steps like the recurrence does
    // (short jumps are the common case), then gallop over the cumulative row
    // so long jumps cost O(log jump) instead of O(jump).
    std::uint32_t walked = 0;
    while (true) {
      sub_words(top, low, rows.mu(c, remaining), w);
      ++c;
      RSTP_CHECK_LT(c, k_, "unrank overran the universe");
      if (less_words(top, low, rows.mu(c, remaining), w)) break;
      if (++walked < 2) continue;
      c = gallop(rows.cum(remaining), top, low, c, k_, w);
      break;
    }
    mu_row = rows.mu(c, 0);
    out[i] = c;
  }
  RSTP_CHECK(top == 0 && std::all_of(low, low + w - 1, [](std::uint64_t x) { return x == 0; }),
             "unrank residual nonzero");
}

BigUint MultisetCodec::rank_reference(const Multiset& m) const {
  RSTP_CHECK_EQ(m.universe(), k_, "multiset universe mismatch");
  RSTP_CHECK_EQ(m.size(), n_, "multiset size mismatch");
  const std::vector<Symbol> seq = m.to_sorted_sequence();
  const Rows rows{*tables_};
  BigUint rank;
  Symbol prev = 0;
  for (std::uint32_t i = 0; i < n_; ++i) {
    const std::uint32_t remaining = n_ - 1 - i;
    for (Symbol c = prev; c < seq[i]; ++c) {
      rank.add_limbs(suffix_count(rows, c, remaining));
    }
    prev = seq[i];
  }
  return rank;
}

Multiset MultisetCodec::unrank_reference(const BigUint& value) const {
  RSTP_CHECK(value < count(), "rank out of range for this codec");
  const Rows rows{*tables_};
  BigUint residual = value;
  Multiset m{k_};
  Symbol prev = 0;
  for (std::uint32_t i = 0; i < n_; ++i) {
    const std::uint32_t remaining = n_ - 1 - i;
    Symbol c = prev;
    while (true) {
      const std::span<const std::uint64_t> block = suffix_count(rows, c, remaining);
      if (residual.compare_limbs(block) < 0) break;
      residual.sub_limbs(block);
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
  // Bit i from the end is bit i % 64 of limb i / 64: pack whole limbs, in
  // scratch words on the stack for up to 512 bits.
  const std::size_t words = (bits.size() + 63) / 64;
  Accumulator scratch{words};
  std::uint64_t* limbs = scratch.data();
  std::uint8_t seen = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const std::uint8_t b = bits[bits.size() - 1 - i];
    seen |= b;
    limbs[i / 64] |= std::uint64_t{b} << (i % 64);
  }
  RSTP_CHECK(seen <= 1, "bit values must be 0 or 1");
  return BigUint::from_limbs({limbs, words});
}

std::vector<std::uint8_t> biguint_to_bits(const BigUint& value, std::size_t width) {
  RSTP_CHECK_LE(value.bit_length(), width, "value does not fit in the requested width");
  std::vector<std::uint8_t> bits(width, 0);
  // Bits past the last limb stay 0; bit_length() <= width bounds the rest.
  const std::span<const std::uint64_t> limbs = value.limbs();
  const std::size_t significant = std::min(width, limbs.size() * 64);
  for (std::size_t i = 0; i < significant; ++i) {
    bits[width - 1 - i] = static_cast<std::uint8_t>((limbs[i / 64] >> (i % 64)) & 1);
  }
  return bits;
}

}  // namespace rstp::combinatorics
