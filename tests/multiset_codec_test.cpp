// Tests for Multiset and the rank/unrank bijection (the constructive
// toseq/tomulti of paper §3).
#include "rstp/combinatorics/multiset_codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "rstp/combinatorics/binomial.h"
#include "rstp/common/check.h"
#include "rstp/common/rng.h"

namespace rstp::combinatorics {
namespace {

using bigint::BigUint;

TEST(Multiset, BasicOperations) {
  Multiset m{4};
  EXPECT_EQ(m.universe(), 4u);
  EXPECT_EQ(m.size(), 0u);
  m.add(2);
  m.add(2);
  m.add(0);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.count(2), 2u);
  EXPECT_EQ(m.count(0), 1u);
  EXPECT_EQ(m.count(3), 0u);
  m.remove(2);
  EXPECT_EQ(m.count(2), 1u);
  EXPECT_EQ(m.size(), 2u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.count(0), 0u);
}

TEST(Multiset, ContractChecks) {
  Multiset m{3};
  EXPECT_THROW(m.add(3), ContractViolation);
  EXPECT_THROW(m.remove(1), ContractViolation);
  EXPECT_THROW((void)m.count(7), ContractViolation);
  EXPECT_THROW(Multiset{0}, ContractViolation);
}

TEST(Multiset, FromSymbolsIsOrderInsensitive) {
  const Symbol a[] = {3, 1, 1, 0, 2};
  const Symbol b[] = {1, 0, 3, 2, 1};
  EXPECT_EQ(Multiset::from_symbols(4, a), Multiset::from_symbols(4, b));
}

TEST(Multiset, ToSortedSequenceIsCanonicalLinearization) {
  const Symbol syms[] = {2, 0, 2, 1};
  const Multiset m = Multiset::from_symbols(3, syms);
  const std::vector<Symbol> expected = {0, 1, 2, 2};
  EXPECT_EQ(m.to_sorted_sequence(), expected);
}

TEST(Multiset, SubmultisetRelation) {
  const Symbol a[] = {0, 1};
  const Symbol b[] = {0, 0, 1, 2};
  const Multiset ma = Multiset::from_symbols(3, a);
  const Multiset mb = Multiset::from_symbols(3, b);
  EXPECT_TRUE(ma.submultiset_of(mb));
  EXPECT_FALSE(mb.submultiset_of(ma));
  EXPECT_TRUE(ma.submultiset_of(ma));
  EXPECT_TRUE(Multiset{3}.submultiset_of(ma));  // empty ⊆ everything
}

TEST(MultisetCodec, CountMatchesMu) {
  for (std::uint32_t k = 1; k <= 8; ++k) {
    for (std::uint32_t n = 0; n <= 10; ++n) {
      const MultisetCodec codec{k, n};
      EXPECT_EQ(codec.count(), mu(k, n)) << "k=" << k << " n=" << n;
    }
  }
}

TEST(MultisetCodec, RankUnrankFullBijectionSmall) {
  // Exhaustive: every rank unranks to a distinct multiset that ranks back.
  for (std::uint32_t k = 2; k <= 5; ++k) {
    for (std::uint32_t n = 1; n <= 6; ++n) {
      const MultisetCodec codec{k, n};
      const std::uint64_t total = codec.count().to_u64();
      std::set<std::vector<Symbol>> seen;
      for (std::uint64_t r = 0; r < total; ++r) {
        const Multiset m = codec.unrank(BigUint{r});
        EXPECT_EQ(m.size(), n);
        EXPECT_EQ(m.universe(), k);
        EXPECT_EQ(codec.rank(m).to_u64(), r);
        seen.insert(m.to_sorted_sequence());
      }
      EXPECT_EQ(seen.size(), total) << "unrank must be injective, k=" << k << " n=" << n;
    }
  }
}

TEST(MultisetCodec, RankIsLexOrderOfSortedSequences) {
  // Unranking consecutive ranks yields lexicographically increasing
  // canonical sequences.
  const MultisetCodec codec{4, 3};
  std::vector<Symbol> prev;
  const std::uint64_t total = codec.count().to_u64();
  for (std::uint64_t r = 0; r < total; ++r) {
    const std::vector<Symbol> cur = codec.unrank(BigUint{r}).to_sorted_sequence();
    if (r > 0) {
      EXPECT_TRUE(std::lexicographical_compare(prev.begin(), prev.end(), cur.begin(), cur.end()))
          << "rank " << r;
    }
    prev = cur;
  }
}

TEST(MultisetCodec, ExtremeRanks) {
  const MultisetCodec codec{5, 4};
  // Rank 0 is the all-zeros multiset; the max rank is all (k-1)s.
  EXPECT_EQ(codec.unrank(BigUint{}).to_sorted_sequence(), (std::vector<Symbol>{0, 0, 0, 0}));
  const BigUint last = codec.count() - BigUint{1};
  EXPECT_EQ(codec.unrank(last).to_sorted_sequence(), (std::vector<Symbol>{4, 4, 4, 4}));
}

TEST(MultisetCodec, RankRejectsWrongShape) {
  const MultisetCodec codec{3, 4};
  Multiset wrong_universe{4};
  for (int i = 0; i < 4; ++i) wrong_universe.add(0);
  EXPECT_THROW((void)codec.rank(wrong_universe), ContractViolation);
  Multiset wrong_size{3};
  wrong_size.add(0);
  EXPECT_THROW((void)codec.rank(wrong_size), ContractViolation);
  EXPECT_THROW((void)codec.unrank(codec.count()), ContractViolation);  // out of range
}

TEST(MultisetCodec, RandomRoundTripLargeParameters) {
  // Large (k, n) where μ is astronomically big: round-trip random ranks.
  Rng rng{0x5EED};
  const MultisetCodec codec{16, 64};  // μ_16(64) ≈ 2^49.6
  const std::size_t bits = codec.count().bit_length() - 1;
  for (int iter = 0; iter < 200; ++iter) {
    BigUint r{rng.next_u64()};
    r = r % codec.count();
    const Multiset m = codec.unrank(r);
    EXPECT_EQ(m.size(), 64u);
    EXPECT_EQ(codec.rank(m), r);
  }
  EXPECT_GE(bits, 45u);
}

TEST(MultisetCodec, HugeParametersStayExact) {
  // δ=256, k=64: μ has hundreds of bits; identity must still hold exactly.
  const MultisetCodec codec{64, 256};
  const BigUint probe = codec.count() - BigUint{12345};
  EXPECT_EQ(codec.rank(codec.unrank(probe)), probe);
  EXPECT_GT(codec.count().bit_length(), 100u);
}

TEST(MultisetCodec, FastPathsAgreeWithReferenceRandomized) {
  // Property test for the cumulative-table fast paths: over randomized
  // (k ≤ 64, n ≤ 32) parameter points and both multiset distributions that
  // occur in practice (uniform random symbols, and uniform random ranks —
  // the block-decoder's workload), rank/unrank must agree exactly with the
  // original recurrence-walk implementations and round-trip.
  Rng rng{0xFA57'7AB1};
  for (int iter = 0; iter < 300; ++iter) {
    const auto k = static_cast<std::uint32_t>(1 + rng.next_below(64));
    const auto n = static_cast<std::uint32_t>(rng.next_below(33));
    const MultisetCodec codec{k, n};

    Multiset m{k};
    for (std::uint32_t j = 0; j < n; ++j) {
      m.add(static_cast<Symbol>(rng.next_below(k)));
    }
    const BigUint r = codec.rank(m);
    EXPECT_EQ(r, codec.rank_reference(m)) << "k=" << k << " n=" << n;
    EXPECT_EQ(codec.unrank(r), m) << "k=" << k << " n=" << n;
    EXPECT_EQ(codec.unrank_reference(r), m) << "k=" << k << " n=" << n;

    const BigUint v = BigUint{rng.next_u64()} % codec.count();
    const Multiset u = codec.unrank(v);
    EXPECT_EQ(u, codec.unrank_reference(v)) << "k=" << k << " n=" << n;
    EXPECT_EQ(codec.rank(u), v) << "k=" << k << " n=" << n;
    EXPECT_EQ(codec.rank_reference(u), v) << "k=" << k << " n=" << n;
  }
}

TEST(MultisetCodec, FastPathsAgreeWithReferenceExhaustiveSmall) {
  // Exhaustive differential check where full enumeration is affordable:
  // every rank of every small (k, n) decodes identically via both paths.
  for (std::uint32_t k = 1; k <= 6; ++k) {
    for (std::uint32_t n = 0; n <= 5; ++n) {
      const MultisetCodec codec{k, n};
      const std::uint64_t total = codec.count().to_u64();
      for (std::uint64_t r = 0; r < total; ++r) {
        const Multiset m = codec.unrank(BigUint{r});
        ASSERT_EQ(m, codec.unrank_reference(BigUint{r})) << "k=" << k << " n=" << n;
        ASSERT_EQ(codec.rank(m), codec.rank_reference(m)) << "k=" << k << " n=" << n;
      }
    }
  }
}

TEST(MultisetCodec, FastPathsAgreeWithReferenceWideTables) {
  // Points whose table entries take W >= 3 words: the randomized case above
  // stops at W = 2. (1000, 32) also makes unrank gallop over long jumps.
  Rng rng{0x01DE'7AB1};
  for (const auto& [k, n] : {std::pair<std::uint32_t, std::uint32_t>{64, 256}, {200, 64},
                             {1000, 32}}) {
    const MultisetCodec codec{k, n};
    ASSERT_GT(codec.count().bit_length(), 128u) << "k=" << k << " n=" << n;
    const std::size_t words = (codec.count().bit_length() + 63) / 64;
    std::vector<BigUint> ranks{BigUint{}, codec.count() - BigUint{1}};
    for (int i = 0; i < 40; ++i) {
      BigUint r;
      for (std::size_t w = 0; w < words; ++w) r = (r << 64) + BigUint{rng.next_u64()};
      ranks.push_back(r % codec.count());
    }
    for (const BigUint& r : ranks) {
      const Multiset m = codec.unrank(r);
      ASSERT_EQ(m, codec.unrank_reference(r)) << "k=" << k << " n=" << n << " r=" << r;
      ASSERT_EQ(codec.rank(m), r) << "k=" << k << " n=" << n;
      ASSERT_EQ(codec.rank_reference(m), r) << "k=" << k << " n=" << n;
    }
  }
}

TEST(MultisetCodec, UnrankSortedMatchesTheReferenceSequence) {
  // unrank_sorted is the one unrank algorithm: it writes toseq(unrank(v))
  // straight into a span. Exhaustive on small (k, n), every rank.
  for (std::uint32_t k = 1; k <= 5; ++k) {
    for (std::uint32_t n = 0; n <= 5; ++n) {
      const MultisetCodec codec{k, n};
      std::vector<Symbol> out(n);
      for (std::uint64_t r = 0; r < codec.count().to_u64(); ++r) {
        codec.unrank_sorted(BigUint{r}, out);
        ASSERT_EQ(out, codec.unrank_reference(BigUint{r}).to_sorted_sequence())
            << "k=" << k << " n=" << n << " r=" << r;
      }
    }
  }
}

TEST(MultisetCodec, UnrankSortedMatchesTheReferenceAtEveryWidth) {
  // Seeded ranks at table widths W = 1, 2 and 3, plus both extreme ranks.
  Rng rng{0x5011'7ED5};
  for (const auto& [k, n, width] :
       {std::tuple<std::uint32_t, std::uint32_t, std::size_t>{8, 32, 1}, {64, 32, 2},
        {256, 32, 3}}) {
    const MultisetCodec codec{k, n};
    ASSERT_EQ(codec.count().limbs().size(), width) << "k=" << k << " n=" << n;
    std::vector<BigUint> ranks{BigUint{}, codec.count() - BigUint{1}};
    for (int i = 0; i < 64; ++i) {
      BigUint r;
      for (std::size_t w = 0; w < width; ++w) r = (r << 64) + BigUint{rng.next_u64()};
      ranks.push_back(r % codec.count());
    }
    std::vector<Symbol> out(n);
    for (const BigUint& r : ranks) {
      codec.unrank_sorted(r, out);
      ASSERT_EQ(out, codec.unrank_reference(r).to_sorted_sequence())
          << "k=" << k << " n=" << n << " r=" << r;
    }
  }
}

TEST(MultisetCodec, UnrankSortedChecksItsArguments) {
  const MultisetCodec codec{4, 3};
  std::vector<Symbol> short_out(2);
  std::vector<Symbol> long_out(4);
  std::vector<Symbol> out(3);
  EXPECT_THROW(codec.unrank_sorted(BigUint{0}, short_out), ContractViolation);
  EXPECT_THROW(codec.unrank_sorted(BigUint{0}, long_out), ContractViolation);
  EXPECT_THROW(codec.unrank_sorted(codec.count(), out), ContractViolation);  // rank out of range
}

TEST(MultisetCodec, RejectsTablesPastTheByteCeilingBeforeAllocating) {
  // (2k + 1)·n entries of W words. δ = 3·10^7 over k = 4 is 4.3 GB at
  // W = 2, past the ceiling at any width: the constructor rejects it on
  // the one-word bound, before computing μ_4(n) or allocating.
  EXPECT_FALSE(MultisetCodec::tables_fit(4, 30'000'000));
  EXPECT_THROW(MultisetCodec(4, 30'000'000), ContractViolation);
  // δ = 5·10^6 fits at one word (360 MB) but μ_4(n) needs two (720 MB):
  // the table build checks the exact width before it allocates the words.
  EXPECT_FALSE(MultisetCodec::tables_fit(4, 5'000'000));
  EXPECT_THROW(MultisetCodec(4, 5'000'000), ContractViolation);
  // δ = 10^6 (72 MB) and the largest tables the fuzzer and the megasession
  // reach (k = kMaxUniverse, δ = 16: four words, 268 MB) fit.
  EXPECT_TRUE(MultisetCodec::tables_fit(4, 1'000'000));
  EXPECT_TRUE(MultisetCodec::tables_fit(MultisetCodec::kMaxUniverse, 16));
  EXPECT_FALSE(MultisetCodec::tables_fit(MultisetCodec::kMaxUniverse + 1, 1));
  EXPECT_FALSE(MultisetCodec::tables_fit(0, 1));
}

TEST(MultisetCodec, TablesOutliveTheirLastCodec) {
  // The intern cache holds its tables strongly: a later codec for the same
  // (k, n) reuses them after every earlier codec is gone.
  const BigUint* first = nullptr;
  {
    const MultisetCodec codec{24, 40};
    first = &codec.count();
  }
  // Another point built in between: had the first tables been freed, the
  // allocator would hand their memory to this one.
  const MultisetCodec other{25, 40};
  const MultisetCodec again{24, 40};
  EXPECT_EQ(&again.count(), first);
  EXPECT_NE(&other.count(), first);

  // Past the byte budget the least recently used tables are evicted. A live
  // codec keeps its own tables, and a rebuilt point codes exactly as before.
  const MultisetCodec held{24, 40};
  const Multiset probe = held.unrank(held.count() - BigUint{777});
  // A (k, n) table holds at least 2·k·n words (mu and cum, W >= 1).
  std::size_t built_bytes = 0;
  for (std::uint32_t n = 40; built_bytes <= MultisetCodec::kTableCacheBytes; ++n) {
    const MultisetCodec filler{200, n};
    built_bytes += std::size_t{2} * 200 * n * sizeof(std::uint64_t);
  }
  EXPECT_EQ(held.rank(probe), held.count() - BigUint{777});
  const MultisetCodec rebuilt{24, 40};
  // Fresh tables: the old ones left the cache and live on only in `held`.
  EXPECT_NE(&rebuilt.count(), &held.count());
  EXPECT_EQ(rebuilt.count(), held.count());
  EXPECT_EQ(rebuilt.unrank(rebuilt.count() - BigUint{777}), probe);
  Rng rng{0xCAC4E};
  for (int i = 0; i < 50; ++i) {
    const BigUint r = BigUint{rng.next_u64()} % rebuilt.count();
    const Multiset m = rebuilt.unrank(r);
    EXPECT_EQ(m, held.unrank(r));
    EXPECT_EQ(rebuilt.rank(m), r);
    EXPECT_EQ(rebuilt.rank_reference(m), r);
  }
}

/// Mean wall-clock ns per `op(i)` over `iterations` calls, minimum over 4
/// repetitions: preemption only ever inflates a sample, so the min is the
/// robust estimator on a busy machine.
template <typename Op>
double min_ns_per_call(std::size_t iterations, Op&& op) {
  using Clock = std::chrono::steady_clock;
  double best = 0;
  for (int rep = 0; rep < 4; ++rep) {
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) op(i);
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - begin).count() /
                      static_cast<double>(iterations);
    if (rep == 0 || ns < best) best = ns;
  }
  return best;
}

TEST(MultisetCodec, TablePathsBeatTheReferenceRecurrence) {
  // Wall-clock gate: the cumulative-table rank/unrank must each be faster
  // than the recurrence walk they replaced, at the alphabet sizes the
  // protocols use (k >= 8). 512 calls cycle through a 64-multiset pool.
  constexpr std::size_t kIterations = 512;
  constexpr std::size_t kPool = 64;
  for (const auto& [k, n] : {std::pair<std::uint32_t, std::uint32_t>{8, 32}, {32, 32}}) {
    const MultisetCodec codec{k, n};
    Rng rng{0xBE7C0DEC};
    std::vector<Multiset> multisets;
    std::vector<BigUint> ranks;
    for (std::size_t i = 0; i < kPool; ++i) {
      Multiset m{k};
      for (std::uint32_t j = 0; j < n; ++j) m.add(static_cast<Symbol>(rng.next_below(k)));
      ranks.push_back(codec.rank(m));
      multisets.push_back(std::move(m));
    }
    // Volatile sink so the optimizer cannot drop the codec calls.
    volatile std::size_t sink = 0;
    const double rank_ns = min_ns_per_call(kIterations, [&](std::size_t i) {
      sink = sink + codec.rank(multisets[i % kPool]).bit_length();
    });
    const double rank_reference_ns = min_ns_per_call(kIterations, [&](std::size_t i) {
      sink = sink + codec.rank_reference(multisets[i % kPool]).bit_length();
    });
    const double unrank_ns = min_ns_per_call(kIterations, [&](std::size_t i) {
      sink = sink + codec.unrank(ranks[i % kPool]).size();
    });
    const double unrank_reference_ns = min_ns_per_call(kIterations, [&](std::size_t i) {
      sink = sink + codec.unrank_reference(ranks[i % kPool]).size();
    });
    EXPECT_LT(rank_ns, rank_reference_ns) << "k=" << k << " n=" << n;
    EXPECT_LT(unrank_ns, unrank_reference_ns) << "k=" << k << " n=" << n;
  }
}

TEST(BitsConversion, RoundTrip) {
  Rng rng{77};
  for (int iter = 0; iter < 100; ++iter) {
    const std::size_t width = 1 + rng.next_below(120);
    std::vector<std::uint8_t> bits(width);
    for (auto& b : bits) b = rng.next_bool() ? 1 : 0;
    const BigUint v = bits_to_biguint(bits);
    EXPECT_EQ(biguint_to_bits(v, width), bits);
  }
}

TEST(BitsConversion, RoundTripOnAndOffTheStackBuffer) {
  // bits_to_biguint packs up to 512 bits (8 words) in stack scratch and
  // longer strings on the heap; both sides of that line round-trip.
  Rng rng{0xB175};
  for (const std::size_t width : {1u, 63u, 64u, 65u, 511u, 512u, 513u, 640u, 1000u}) {
    std::vector<std::uint8_t> bits(width);
    for (auto& b : bits) b = rng.next_bool() ? 1 : 0;
    bits.front() = 1;  // the full width is significant
    const BigUint v = bits_to_biguint(bits);
    EXPECT_EQ(v.bit_length(), width);
    EXPECT_EQ(biguint_to_bits(v, width), bits) << "width=" << width;
  }
}

TEST(BitsConversion, Checks) {
  const std::uint8_t bad[] = {0, 2, 1};
  EXPECT_THROW((void)bits_to_biguint(bad), ContractViolation);
  EXPECT_THROW((void)biguint_to_bits(BigUint{4}, 2), ContractViolation);  // needs 3 bits
  EXPECT_EQ(biguint_to_bits(BigUint{}, 3), (std::vector<std::uint8_t>{0, 0, 0}));
}

TEST(BitsConversion, MsbFirst) {
  const std::uint8_t bits[] = {1, 0, 1};  // 0b101 = 5
  EXPECT_EQ(bits_to_biguint(bits).to_u64(), 5u);
}

}  // namespace
}  // namespace rstp::combinatorics
