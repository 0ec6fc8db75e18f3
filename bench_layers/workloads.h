// The four bench_layers workloads. Each one drives the library only through
// public calls (MultiSession::run, Campaign::run, Link::transfer, and the
// incremental Simulator API for the traced replay); the spec values that
// depend on the benchmark seed are the base/campaign seed and the payload
// bytes, nothing else.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "layers.h"

namespace rstp::bench {

/// One call of a workload's public entry point, measured untraced.
struct Rep {
  double wall_s = 0;
  std::uint64_t events = 0;
  std::uint64_t bits_ok = 0;    ///< message bits of correct, quiescent units
  std::uint64_t attempted = 0;  ///< sessions, jobs or transfers
  /// Units incorrect, non-quiescent, thrown or unverified. On mega_* an upper
  /// bound: a session failing both ways counts twice (capped at attempted).
  std::uint64_t failed = 0;
  double effort = 0;            ///< mean simulated ticks per bit
};

/// Per-layer metric values by name (see kLayerMetrics in bench_layers.cpp).
using MetricMap = std::map<std::string, double, std::less<>>;

/// What a traced replay reports back.
struct TracedResult {
  bool replay_equal = false;  ///< replay reproduced the untraced result field for field
  double wall_s = 0;          ///< host seconds of the replay, tracing included
  double explained_ns = 0;    ///< Σ top-level layer time, net of instrumentation
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs the whole workload once on `threads` workers and keeps its full
  /// result for deterministic() and traced().
  virtual Rep run(unsigned threads) = 0;

  /// The same spec with the event cap at 1 per session, job or transfer:
  /// host seconds spent in the program's own set-up path.
  virtual double setup_probe() = 0;

  /// Runs on 1 and then 2 threads; true iff the results are identical.
  virtual bool deterministic() = 0;

  /// Replays the last run() through decorated layers, fills `metrics`, and
  /// checks the replay against that run. `untraced` is the fastest run() of
  /// the measurement and `setup_s` the fastest set-up probe.
  virtual TracedResult traced(SpanRecorder& recorder, const Rep& untraced, double setup_s,
                              MetricMap& metrics) = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string_view>& workload_names();

/// Builds workload `name` with inputs derived from `seed`; null for an
/// unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed);

}  // namespace rstp::bench
