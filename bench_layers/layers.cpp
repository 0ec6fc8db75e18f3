#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ostream>

#include "rstp/bigint/biguint.h"
#include "rstp/channel/policies.h"
#include "rstp/combinatorics/block_coder.h"
#include "rstp/common/rng.h"
#include "rstp/common/time.h"
#include "rstp/obs/json.h"

namespace rstp::bench {

namespace {

/// Keeps the optimizer from dropping or hoisting work whose result is
/// otherwise unused.
template <typename T>
void keep(T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median over `trials` of the mean ns per iteration of `body(iterations)`.
template <typename Body>
double ns_per_op(std::size_t iterations, Body&& body, int trials = 5) {
  std::vector<double> per_op;
  for (int t = 0; t < trials; ++t) {
    const auto start = std::chrono::steady_clock::now();
    body(iterations);
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - start;
    per_op.push_back(elapsed.count() / static_cast<double>(iterations));
  }
  return median(std::move(per_op));
}

/// Median of host_now_ns() read back to back: what timing one call directly
/// adds to its measured duration.
double empty_interval_ns() {
  std::vector<double> gaps(4096);
  for (double& g : gaps) {
    const std::uint64_t a = host_now_ns();
    const std::uint64_t b = host_now_ns();
    g = static_cast<double>(b - a);
  }
  return median(std::move(gaps));
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  const auto nth = values.begin() +
                   static_cast<std::ptrdiff_t>(std::clamp<std::size_t>(rank, 1, values.size()) - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

// --- LayerStat ----------------------------------------------------------------

double LayerStat::net_ns(const TimerCost& cost) const {
  return static_cast<double>(raw_ns) - cost.self_ns * static_cast<double>(calls) -
         cost.pair_ns * static_cast<double>(inner_calls);
}

double LayerStat::net_ns_per_call(const TimerCost& cost) const {
  return calls == 0 ? 0 : std::max(0.0, net_ns(cost) / static_cast<double>(calls));
}

double LayerStat::percentile_ns(double p, const TimerCost& cost) const {
  if (samples.empty()) return 0;
  return std::max(0.0, percentile({samples.begin(), samples.end()}, p) - cost.self_ns);
}

// --- SpanRecorder -------------------------------------------------------------

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {
  calibrate_host_clock();
  // Touches every page of the span store up front: a page fault inside a
  // timed call costs more than most calls.
  spans_.resize(capacity_);
  spans_.clear();
  stack_.reserve(64);
  calibrate();
  origin_ = host_now_ns();
}

void SpanRecorder::calibrate() {
  // Calibrated storing spans, the regime of nearly every call of the
  // workloads' replays; the calibration's own spans are discarded.
  constexpr std::size_t kCalls = 20'000;
  LayerStat empty;
  empty.sample_limit = kCalls;
  std::vector<double> per_call;
  for (int trial = 0; trial < 7; ++trial) {
    empty.samples.clear();
    spans_.clear();
    const std::uint64_t start = host_now_ns();
    for (std::size_t i = 0; i < kCalls; ++i) {
      const Scope scope{*this, empty, "calibrate"};
    }
    per_call.push_back(static_cast<double>(host_now_ns() - start) / kCalls);
  }
  std::vector<double> self(empty.samples.begin(), empty.samples.end());
  cost_.self_ns = median(std::move(self));
  cost_.pair_ns = median(std::move(per_call));
  spans_.clear();
  dropped_ = 0;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, LayerStat& stat, const char* name)
    : recorder_(recorder) {
  recorder_.open(stat, name);
}

SpanRecorder::Scope::~Scope() { recorder_.close(); }

void SpanRecorder::open(LayerStat& stat, const char* name) {
  Open entry;
  entry.stat = &stat;
  if (spans_.size() < capacity_) {
    entry.span = static_cast<std::int32_t>(spans_.size());
    spans_.push_back(Span{name, 0, 0, stack_.empty() ? -1 : stack_.back().span});
  } else {
    ++dropped_;
  }
  stack_.push_back(entry);
  // Read last, so the bookkeeping above stays outside the measured interval.
  stack_.back().start = host_now_ns();
}

void SpanRecorder::close() {
  const std::uint64_t end = host_now_ns();
  const Open entry = stack_.back();
  stack_.pop_back();
  const std::uint64_t raw = end - entry.start;
  LayerStat& stat = *entry.stat;
  ++stat.calls;
  stat.raw_ns += raw;
  stat.inner_calls += entry.inner;
  if (stat.samples.size() < stat.sample_limit) {
    // Net of the nested timers, so a percentile is comparable to a mean.
    const double net = static_cast<double>(raw) - static_cast<double>(entry.inner) * cost_.pair_ns;
    stat.samples.push_back(static_cast<std::uint32_t>(std::clamp(net, 0.0, double{UINT32_MAX})));
  }
  if (entry.span >= 0) {
    Span& span = spans_[static_cast<std::size_t>(entry.span)];
    span.start = entry.start;
    span.end = end;
  }
  if (!stack_.empty()) stack_.back().inner += 1 + entry.inner;
}

void SpanRecorder::write_chrome_trace(std::ostream& os, const std::string& workload) const {
  const auto micros = [&](std::uint64_t ns) {
    return obs::json_number(static_cast<double>(ns - std::min(ns, origin_)) / 1000.0);
  };
  os << "{\"traceEvents\":[";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":"
     << obs::json_quote("bench_layers " + workload) << "}}";
  for (const Span& s : spans_) {
    if (s.end == 0) continue;  // still open when the trace was written
    os << ",\n{\"name\":" << obs::json_quote(s.name) << ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << micros(s.start) << ",\"dur\":" << obs::json_number(static_cast<double>(s.end - s.start) / 1000.0);
    if (s.parent >= 0) {
      os << ",\"args\":{\"parent\":"
         << obs::json_quote(spans_[static_cast<std::size_t>(s.parent)].name) << "}";
    }
    os << "}";
  }
  os << "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"workload\":" << obs::json_quote(workload)
     << ",\"spans\":" << spans_.size() << ",\"dropped_spans\":" << dropped_
     << ",\"timer_self_ns\":" << obs::json_number(cost_.self_ns)
     << ",\"timer_pair_ns\":" << obs::json_number(cost_.pair_ns) << "}}\n";
}

// --- Decorators ---------------------------------------------------------------

Layers::Layers() {
  make_protocol.sample_limit = 1 << 16;
  advance.sample_limit = 1 << 21;
}

TimedScheduler::TimedScheduler(std::unique_ptr<sim::StepScheduler> inner, SpanRecorder& recorder,
                               Layers& layers)
    : inner_(std::move(inner)), recorder_(recorder), layers_(layers) {}

Duration TimedScheduler::first_offset() { return inner_->first_offset(); }

Duration TimedScheduler::next_gap(std::uint64_t step_index) {
  const SpanRecorder::Scope scope{recorder_, layers_.next_gap, "sim.scheduler.next_gap"};
  return inner_->next_gap(step_index);
}

TimedPolicy::TimedPolicy(std::unique_ptr<channel::DeliveryPolicy> inner, SpanRecorder& recorder,
                         Layers& layers)
    : inner_(std::move(inner)), recorder_(recorder), layers_(layers) {}

channel::Delivery TimedPolicy::choose(const ioa::Packet& packet, Time sent_at, Time deadline,
                                      std::uint64_t send_seq) {
  const SpanRecorder::Scope scope{recorder_, layers_.choose, "channel.policy_choose"};
  return inner_->choose(packet, sent_at, deadline, send_seq);
}

TimedAutomaton::TimedAutomaton(ioa::Automaton& inner, SpanRecorder& recorder, Layers& layers)
    : inner_(inner),
      counters_(dynamic_cast<const obs::CounterSource*>(&inner)),
      recorder_(recorder),
      layers_(layers) {}

std::optional<ioa::Action> TimedAutomaton::enabled_local() const {
  const SpanRecorder::Scope scope{recorder_, layers_.enabled_local, "protocols.enabled_local"};
  return inner_.enabled_local();
}

void TimedAutomaton::apply(const ioa::Action& action) {
  const SpanRecorder::Scope scope{recorder_, layers_.apply, "protocols.apply"};
  inner_.apply(action);
}

const obs::ProtocolCounters& TimedAutomaton::protocol_counters() const {
  static const obs::ProtocolCounters kNone{};
  return counters_ != nullptr ? counters_->protocol_counters() : kNone;
}

// --- Microbenchmarks ----------------------------------------------------------

BigintCost measure_bigint() {
  using bigint::BigUint;
  constexpr std::size_t kOps = 200'000;
  // One-limb operands stay below 2^64 and two-limb ones below 2^128 for every
  // iteration, so each loop measures a single width.
  const BigUint one_limb{0x12345'6789ULL};
  const BigUint two_limb = BigUint::pow2(100) + BigUint{0x9E37'79B9ULL};

  const auto add = [](const BigUint& start, const BigUint& step) {
    return ns_per_op(kOps, [&](std::size_t n) {
      BigUint acc = start;
      for (std::size_t i = 0; i < n; ++i) {
        acc += step;
        keep(acc);
      }
    });
  };
  const auto sub = [](const BigUint& step) {
    BigUint top = step;
    top.mul_u64(kOps + 1);
    return ns_per_op(kOps, [&](std::size_t n) {
      BigUint acc = top;
      for (std::size_t i = 0; i < n; ++i) {
        acc -= step;
        keep(acc);
      }
    });
  };
  // Operands equal in every limb but the lowest: the comparison walks them all.
  const auto cmp = [](const BigUint& a) {
    const BigUint b = a + BigUint{1};
    return ns_per_op(kOps, [&](std::size_t n) {
      std::size_t less = 0;
      for (std::size_t i = 0; i < n; ++i) {
        keep(a);
        if (a < b) ++less;
      }
      keep(less);
    });
  };

  BigintCost cost;
  cost.add_l1 = add(BigUint{1}, one_limb);
  cost.add_l2 = add(BigUint::pow2(64), two_limb);
  cost.sub_l1 = sub(one_limb);
  cost.sub_l2 = sub(two_limb);
  cost.cmp_l1 = cmp(one_limb);
  cost.cmp_l2 = cmp(two_limb);
  return cost;
}

CodecCost measure_codec(const std::vector<CodecPoint>& points) {
  using combinatorics::BlockCoder;
  CodecCost total;
  double weight_sum = 0;
  Rng rng{0xB10C};
  for (const CodecPoint& point : points) {
    const auto ctor = [&]() {
      std::vector<double> times;
      for (int i = 0; i < 9; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const BlockCoder coder{point.k, point.delta};
        const std::chrono::duration<double, std::nano> elapsed =
            std::chrono::steady_clock::now() - start;
        times.push_back(elapsed.count());
      }
      return median(std::move(times));
    };
    // Cold: the intern cache holds its tables weakly, so with no coder of
    // this (k, δ) alive every construction rebuilds them.
    const double cold = ctor();
    const BlockCoder coder{point.k, point.delta};
    const double warm = ctor();

    const std::size_t width = coder.bits_per_block();
    constexpr std::size_t kBlocks = 64;
    std::vector<std::vector<combinatorics::Bit>> blocks(kBlocks,
                                                        std::vector<combinatorics::Bit>(width));
    for (auto& block : blocks) {
      for (auto& bit : block) bit = rng.next_bool() ? 1 : 0;
    }
    std::vector<combinatorics::Multiset> encoded;
    std::vector<bigint::BigUint> values;
    for (const auto& block : blocks) {
      encoded.push_back(combinatorics::Multiset::from_symbols(point.k, coder.encode(block)));
      values.push_back(combinatorics::bits_to_biguint(block));
    }
    const std::size_t calls = kBlocks * 32;
    const auto per_call = [&](auto&& one) {
      return ns_per_op(calls, [&](std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
          auto out = one(i % kBlocks);
          keep(out);
        }
      });
    };
    CodecCost cost;
    cost.ctor_cold = cold;
    cost.ctor_warm = warm;
    cost.encode = per_call([&](std::size_t i) { return coder.encode(blocks[i]); });
    cost.decode = per_call([&](std::size_t i) { return coder.decode(encoded[i]); });
    cost.bits_to_biguint =
        per_call([&](std::size_t i) { return combinatorics::bits_to_biguint(blocks[i]); });
    cost.biguint_to_bits =
        per_call([&](std::size_t i) { return combinatorics::biguint_to_bits(values[i], width); });

    total.ctor_cold += point.weight * cost.ctor_cold;
    total.ctor_warm += point.weight * cost.ctor_warm;
    total.encode += point.weight * cost.encode;
    total.decode += point.weight * cost.decode;
    total.bits_to_biguint += point.weight * cost.bits_to_biguint;
    total.biguint_to_bits += point.weight * cost.biguint_to_bits;
    weight_sum += point.weight;
  }
  if (weight_sum > 0) {
    for (double* field : {&total.ctor_cold, &total.ctor_warm, &total.encode, &total.decode,
                          &total.bits_to_biguint, &total.biguint_to_bits}) {
      *field /= weight_sum;
    }
  }
  return total;
}

ChannelCost measure_channel(std::size_t depth) {
  calibrate_host_clock();
  depth = std::max<std::size_t>(1, depth);
  // With every packet held exactly d = depth ticks and one send per tick, the
  // packet sent at t - depth falls due at t: each tick is one send and one
  // single-packet collect_due, and the queue stays `depth` deep.
  const auto d = static_cast<std::int64_t>(depth);
  channel::Channel chan{Duration{d}, channel::make_max_delay()};
  const ioa::Packet packet = ioa::Packet::to_receiver(1);
  for (std::int64_t t = 0; t < d; ++t) chan.send(packet, Time{t});

  constexpr std::int64_t kTicks = 50'000;
  std::vector<double> send_ns;
  std::vector<double> collect_ns;
  send_ns.reserve(kTicks);
  collect_ns.reserve(kTicks);
  for (std::int64_t t = d; t < d + kTicks; ++t) {
    const std::uint64_t a = host_now_ns();
    chan.send(packet, Time{t});
    const std::uint64_t b = host_now_ns();
    const auto& due = chan.collect_due(Time{t});
    const std::uint64_t c = host_now_ns();
    keep(due);
    send_ns.push_back(static_cast<double>(b - a));
    collect_ns.push_back(static_cast<double>(c - b));
  }
  const double empty = empty_interval_ns();
  return ChannelCost{std::max(0.0, median(std::move(send_ns)) - empty),
                     std::max(0.0, median(std::move(collect_ns)) - empty)};
}

}  // namespace rstp::bench
