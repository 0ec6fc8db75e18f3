// E9 (§3, §6.1): cost of the multiset codec — the "straightforward but
// tedious" encode/decode the paper omits. google-benchmark microbenchmarks
// of rank/unrank and whole-message encode/decode across (k, δ), plus the
// end-to-end simulator's event throughput. These numbers bound the CPU cost
// a real implementation of A^β/A^γ would pay per block.
#include <benchmark/benchmark.h>

#include "rstp/combinatorics/block_coder.h"
#include "rstp/common/rng.h"
#include "rstp/core/effort.h"

namespace {

using namespace rstp;
using combinatorics::BlockCoder;
using combinatorics::Multiset;
using combinatorics::MultisetCodec;
using combinatorics::Symbol;

void BM_MultisetRank(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto delta = static_cast<std::uint32_t>(state.range(1));
  const MultisetCodec codec{k, delta};
  Rng rng{42};
  // Pre-build a pool of random multisets.
  std::vector<Multiset> pool;
  for (int i = 0; i < 64; ++i) {
    Multiset m{k};
    for (std::uint32_t j = 0; j < delta; ++j) {
      m.add(static_cast<Symbol>(rng.next_below(k)));
    }
    pool.push_back(std::move(m));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.rank(pool[i++ & 63]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MultisetRank)->Args({4, 8})->Args({16, 16})->Args({64, 64})->Args({256, 64});

void BM_MultisetUnrank(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto delta = static_cast<std::uint32_t>(state.range(1));
  const MultisetCodec codec{k, delta};
  Rng rng{43};
  std::vector<bigint::BigUint> ranks;
  for (int i = 0; i < 64; ++i) {
    ranks.push_back(bigint::BigUint{rng.next_u64()} % codec.count());
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.unrank(ranks[i++ & 63]));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MultisetUnrank)
    ->Args({4, 8})
    ->Args({8, 32})
    ->Args({16, 16})
    ->Args({32, 32})
    ->Args({64, 64})
    ->Args({256, 64});

void BM_MultisetUnrankSorted(benchmark::State& state) {
  // unrank's one algorithm without the Multiset it returns: the sorted
  // symbols written into a reused buffer, as BlockCoder::encode does.
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto delta = static_cast<std::uint32_t>(state.range(1));
  const MultisetCodec codec{k, delta};
  Rng rng{43};
  std::vector<bigint::BigUint> ranks;
  for (int i = 0; i < 64; ++i) {
    ranks.push_back(bigint::BigUint{rng.next_u64()} % codec.count());
  }
  std::vector<Symbol> out(delta);
  std::size_t i = 0;
  for (auto _ : state) {
    codec.unrank_sorted(ranks[i++ & 63], out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MultisetUnrankSorted)
    ->Args({4, 8})
    ->Args({8, 32})
    ->Args({16, 16})
    ->Args({32, 32})
    ->Args({64, 64})
    ->Args({256, 64});

void BM_BlockEncode(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto delta = static_cast<std::uint32_t>(state.range(1));
  const BlockCoder coder{k, delta};
  const auto bits = core::make_random_input(coder.bits_per_block(), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coder.encode(bits));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(static_cast<std::size_t>(state.iterations()) * coder.bits_per_block() / 8));
}
BENCHMARK(BM_BlockEncode)->Args({4, 8})->Args({16, 16})->Args({64, 64});

void BM_BlockDecode(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto delta = static_cast<std::uint32_t>(state.range(1));
  const BlockCoder coder{k, delta};
  const auto bits = core::make_random_input(coder.bits_per_block(), 7);
  const auto block = coder.encode(bits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coder.decode(block));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(static_cast<std::size_t>(state.iterations()) * coder.bits_per_block() / 8));
}
BENCHMARK(BM_BlockDecode)->Args({4, 8})->Args({16, 16})->Args({64, 64});

void BM_MessageEncode(benchmark::State& state) {
  const BlockCoder coder{16, 16};
  const auto message = core::make_random_input(static_cast<std::size_t>(state.range(0)), 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(coder.encode_message(message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0) / 8);
}
BENCHMARK(BM_MessageEncode)->Arg(1024)->Arg(16384);

void BM_EndToEndSimulation(benchmark::State& state) {
  // Full simulator runs of A^beta(16): events per second of the whole stack.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  for (auto _ : state) {
    protocols::ProtocolConfig cfg;
    cfg.params = core::TimingParams::make(1, 2, 16);
    cfg.k = 16;
    cfg.input = core::make_random_input(n, 11);
    const core::ProtocolRun run =
        core::run_protocol(protocols::ProtocolKind::Beta, cfg, core::Environment::worst_case(),
                           /*record_trace=*/false);
    if (!run.output_correct) state.SkipWithError("corrupted run");
    events += run.result.event_count;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("items = simulator events");
}
BENCHMARK(BM_EndToEndSimulation)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
