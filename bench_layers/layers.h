// Per-layer attribution for bench_layers' traced run.
//
// Everything here lives in the benchmark, outside the library: spans are
// recorded around the calls the benchmark makes into each layer, either
// directly (Simulator::start/advance/take_result, make_protocol,
// verify_trace) or through timing decorators for the three interfaces the
// simulator drives (ioa::Automaton, sim::StepScheduler,
// channel::DeliveryPolicy). Layers whose single calls are too short to time
// one by one inside a run (BigUint, the channel queue, the codec) are
// microbenchmarked at the sizes the workload uses.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "rstp/channel/channel.h"
#include "rstp/ioa/automaton.h"
#include "rstp/obs/run_metrics.h"
#include "rstp/sim/scheduler.h"

namespace rstp::bench {

/// The middle element (upper middle for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, p in [0, 100]; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// What instrumenting one call costs: `self_ns` is what an empty timed call
/// reports as its own duration, `pair_ns` what it adds to the code around it.
struct TimerCost {
  double self_ns = 0;
  double pair_ns = 0;
};

/// Aggregate of one layer boundary's timed calls. Durations are raw: they
/// include the instrumentation's own cost, which a TimerCost subtracts.
struct LayerStat {
  std::uint64_t calls = 0;
  std::uint64_t raw_ns = 0;
  /// Timed calls nested inside these calls (their instrumentation cost is
  /// inside raw_ns too).
  std::uint64_t inner_calls = 0;
  /// Per-call durations net of the timed calls nested in them, kept only
  /// when sample_limit > 0.
  std::vector<std::uint32_t> samples;
  std::size_t sample_limit = 0;

  /// Σ duration net of the instrumentation inside it, in ns.
  [[nodiscard]] double net_ns(const TimerCost& cost) const;
  /// Mean net duration of one call, floored at 0 (0 without calls).
  [[nodiscard]] double net_ns_per_call(const TimerCost& cost) const;
  /// Nearest-rank percentile of the per-call samples, net of the call's own
  /// timer, floored at 0 (0 without samples).
  [[nodiscard]] double percentile_ns(double p, const TimerCost& cost) const;
};

/// In-memory span store with a parent stack. Spans past `capacity` are
/// counted, not kept; LayerStat aggregates see every call regardless.
/// Single-threaded: the traced run replays on one thread.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity);

  /// Times one call into a layer: adds it to `stat` and records a span
  /// named `name` (a string literal) under the innermost open scope.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, LayerStat& stat, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
  };

  /// The instrumentation cost, measured on this recorder with empty scopes
  /// by the constructor.
  [[nodiscard]] const TimerCost& cost() const { return cost_; }

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

  /// Chrome Trace Event Format (complete "X" events, µs timestamps), which
  /// Perfetto and chrome://tracing open directly.
  void write_chrome_trace(std::ostream& os, const std::string& workload) const;

 private:
  struct Span {
    const char* name = nullptr;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int32_t parent = -1;
  };
  struct Open {
    LayerStat* stat = nullptr;
    std::uint64_t start = 0;
    std::uint64_t inner = 0;
    std::int32_t span = -1;
  };

  void open(LayerStat& stat, const char* name);
  void close();
  void calibrate();

  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::uint64_t origin_ = 0;
  TimerCost cost_;
};

/// The layer boundaries a traced replay times.
struct Layers {
  LayerStat setup;          ///< building one session: protocol, env, Simulator
  LayerStat make_protocol;  ///< protocols::make_protocol (sample_limit set)
  LayerStat start;          ///< Simulator::start
  LayerStat advance;        ///< Simulator::advance (sample_limit set)
  LayerStat next_instant;   ///< Simulator::next_instant
  LayerStat take_result;    ///< Simulator::take_result
  LayerStat next_gap;       ///< StepScheduler::next_gap
  LayerStat choose;         ///< DeliveryPolicy::choose
  LayerStat enabled_local;  ///< Automaton::enabled_local
  LayerStat apply;          ///< Automaton::apply (local steps and deliveries)
  LayerStat verify;         ///< core::verify_trace
  LayerStat fold;           ///< folding one session's result

  Layers();
};

/// StepScheduler decorator timing next_gap(); the one first_offset() per
/// session is left inside Simulator::start.
class TimedScheduler final : public sim::StepScheduler {
 public:
  TimedScheduler(std::unique_ptr<sim::StepScheduler> inner, SpanRecorder& recorder,
                 Layers& layers);
  [[nodiscard]] Duration first_offset() override;
  [[nodiscard]] Duration next_gap(std::uint64_t step_index) override;

 private:
  std::unique_ptr<sim::StepScheduler> inner_;
  SpanRecorder& recorder_;
  Layers& layers_;
};

/// DeliveryPolicy decorator timing every choose().
class TimedPolicy final : public channel::DeliveryPolicy {
 public:
  TimedPolicy(std::unique_ptr<channel::DeliveryPolicy> inner, SpanRecorder& recorder,
              Layers& layers);
  [[nodiscard]] channel::Delivery choose(const ioa::Packet& packet, Time sent_at, Time deadline,
                                         std::uint64_t send_seq) override;

 private:
  std::unique_ptr<channel::DeliveryPolicy> inner_;
  SpanRecorder& recorder_;
  Layers& layers_;
};

/// Automaton decorator timing enabled_local() and apply(). It forwards the
/// wrapped automaton's CounterSource, so the simulator folds the same
/// protocol counters as it would undecorated.
class TimedAutomaton final : public ioa::Automaton, public obs::CounterSource {
 public:
  TimedAutomaton(ioa::Automaton& inner, SpanRecorder& recorder, Layers& layers);

  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] std::optional<ioa::Action> enabled_local() const override;
  void apply(const ioa::Action& action) override;
  [[nodiscard]] bool accepts_input(const ioa::Action& action) const override {
    return inner_.accepts_input(action);
  }
  [[nodiscard]] bool quiescent() const override { return inner_.quiescent(); }
  [[nodiscard]] std::string snapshot() const override { return inner_.snapshot(); }
  [[nodiscard]] std::unique_ptr<ioa::Automaton> clone() const override { return inner_.clone(); }
  [[nodiscard]] const obs::ProtocolCounters& protocol_counters() const override;

 private:
  ioa::Automaton& inner_;
  const obs::CounterSource* counters_;
  SpanRecorder& recorder_;
  Layers& layers_;
};

// --- Microbenchmarks --------------------------------------------------------

/// ns per BigUint operation at 1 and 2 limbs.
struct BigintCost {
  double add_l1 = 0, add_l2 = 0, sub_l1 = 0, sub_l2 = 0, cmp_l1 = 0, cmp_l2 = 0;
};
[[nodiscard]] BigintCost measure_bigint();

/// One (k, δ) block-coder configuration a workload uses, weighted by how many
/// protocol instances use it.
struct CodecPoint {
  std::uint32_t k = 0;
  std::uint32_t delta = 0;
  double weight = 1;
};

/// Weighted mean ns per codec call over a workload's CodecPoints.
struct CodecCost {
  double ctor_cold = 0;  ///< BlockCoder construction with no live coder of that (k, δ)
  double ctor_warm = 0;  ///< construction while one is alive (interned tables)
  double encode = 0;     ///< BlockCoder::encode of one block
  double decode = 0;     ///< BlockCoder::decode of one block's multiset
  double bits_to_biguint = 0;
  double biguint_to_bits = 0;
};
[[nodiscard]] CodecCost measure_codec(const std::vector<CodecPoint>& points);

/// Median net ns per Channel::send and per Channel::collect_due (one packet
/// due) at a steady queue depth of `depth` packets in flight.
struct ChannelCost {
  double send = 0;
  double collect_due = 0;
};
[[nodiscard]] ChannelCost measure_channel(std::size_t depth);

}  // namespace rstp::bench
