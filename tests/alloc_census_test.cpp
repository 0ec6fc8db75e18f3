// Allocation census: how many times one session calls operator new.
//
// A replacement global operator new counts every allocation the program
// makes. Every buffer that holds Y (the receiver's arrivals and written
// messages, RunResult::output) is sized once from |X|, so an α session
// allocates the same number of times whatever |X| is; and a capped β
// campaign job, which writes nothing, stays within its recorded count
// (docs/PERF.md, "Allocation census").
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "rstp/core/effort.h"
#include "rstp/sim/campaign.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc{};
}

}  // namespace

// Every replaceable non-aligned form, so that each allocation is counted
// and every pointer is freed by the allocator that made it (sanitizer
// runtimes bring their own operator new).
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t /*size*/) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace rstp {
namespace {

using protocols::ProtocolKind;

/// Allocations made by `fn()`.
template <typename F>
std::uint64_t allocations_of(F&& fn) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// One uncapped α session over |X| = `bits`, (1,2,4), k = 2, worst case, no
/// trace; X is built outside the count.
std::uint64_t alpha_session_allocations(std::size_t bits) {
  protocols::ProtocolConfig cfg;
  cfg.params = core::TimingParams::make(1, 2, 4);
  cfg.k = 2;
  cfg.input = core::make_random_input(bits, 7);
  bool correct = false;
  const std::uint64_t count = allocations_of([&] {
    const core::ProtocolRun run = core::run_protocol(ProtocolKind::Alpha, cfg,
                                                     core::Environment::worst_case(),
                                                     /*record_trace=*/false);
    correct = run.output_correct && run.result.quiescent;
  });
  EXPECT_TRUE(correct) << "|X| = " << bits;
  return count;
}

TEST(AllocationCensus, AnAlphaSessionAllocatesAlikeAtEveryInputLength) {
  const std::uint64_t short_run = alpha_session_allocations(32);
  EXPECT_EQ(alpha_session_allocations(1024), short_run);
  EXPECT_EQ(alpha_session_allocations(32), short_run);  // nothing is cached between runs
}

TEST(AllocationCensus, ACappedBetaCampaignJobStaysWithinItsCount) {
  sim::CampaignJob job;
  job.protocol = ProtocolKind::Beta;
  job.params = core::TimingParams::make(1, 2, 32);
  job.k = 16;
  job.environment = core::Environment::worst_case();
  job.input_seed = 3;
  // The first job builds the codec tables; the census counts a warm one.
  (void)sim::run_campaign_job(job, 8, 1);
  const std::uint64_t count = allocations_of([&] { (void)sim::run_campaign_job(job, 8, 1); });
  EXPECT_LE(count, 23u);
}

}  // namespace
}  // namespace rstp
