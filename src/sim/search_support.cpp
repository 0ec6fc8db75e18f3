#include "rstp/sim/search_support.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "rstp/obs/run_metrics.h"

namespace rstp::sim {

std::uint64_t event_fingerprint(const ioa::TimedEvent& e,
                                const protocols::TransmitterBase& t,
                                const protocols::ReceiverBase& r) {
  std::uint64_t h = kFnvOffset;
  h = fnv_mix(h, static_cast<std::uint64_t>(e.actor));
  h = fnv_mix(h, static_cast<std::uint64_t>(e.action.kind));
  switch (e.action.kind) {
    case ioa::ActionKind::Send:
    case ioa::ActionKind::Recv:
      h = fnv_mix(h, static_cast<std::uint64_t>(e.action.packet.direction));
      h = fnv_mix(h, e.action.packet.payload);
      break;
    case ioa::ActionKind::Write:
      h = fnv_mix(h, e.action.message);
      break;
    case ioa::ActionKind::Internal:
      h = fnv_mix(h, e.action.internal_id);
      break;
  }
  const obs::ProtocolCounters& tc = t.protocol_counters();
  const obs::ProtocolCounters& rc = r.protocol_counters();
  h = fnv_mix(h, tc.blocks_encoded);
  h = fnv_mix(h, tc.acks_observed);
  h = fnv_mix(h, tc.retransmissions);
  h = fnv_mix(h, rc.blocks_decoded);
  h = fnv_mix(h, rc.acks_sent);
  h = fnv_mix(h, r.output().size());
  return h;
}

std::vector<std::uint64_t> CoverageObserver::sorted_fingerprints() const {
  std::vector<std::uint64_t> out(seen_.begin(), seen_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t hash_bits(const std::vector<ioa::Bit>& bits) {
  std::uint64_t h = kFnvOffset;
  for (const ioa::Bit b : bits) h = fnv_mix(h, b);
  return h;
}

std::uint64_t hash_sorted(const std::vector<std::uint64_t>& values) {
  std::uint64_t h = kFnvOffset;
  for (const std::uint64_t v : values) h = fnv_mix(h, v);
  return h;
}

void parallel_for_slots(std::size_t n, unsigned jobs,
                        const std::function<void(std::size_t)>& fn) {
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  const auto workers =
      static_cast<unsigned>(std::min<std::size_t>(jobs, std::max<std::size_t>(1, n)));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> died{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&]() {
    try {
      while (!died.load(std::memory_order_relaxed)) {
        const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        fn(i);
      }
    } catch (...) {
      const std::scoped_lock lock{error_mutex};
      if (!first_error) first_error = std::current_exception();
      died.store(true, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rstp::sim
