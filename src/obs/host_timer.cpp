#include "rstp/obs/host_timer.h"

#include <algorithm>
#include <cmath>

#include "rstp/common/check.h"
#include "rstp/common/time.h"
#include "rstp/obs/trace.h"

namespace rstp::obs {

namespace {

double median(std::vector<double> values) {
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

}  // namespace

double LayerTotal::net_ns(const TimerCost& cost) const {
  // Each call's own timer leaves self_ns inside it; each nested call leaves
  // the part of its pair outside its own interval, pair_ns − self_ns.
  return static_cast<double>(raw_ns) - static_cast<double>(nested_ns) -
         cost.self_ns * static_cast<double>(calls) -
         (cost.pair_ns - cost.self_ns) * static_cast<double>(nested_calls);
}

HostTimer::HostTimer(trace::Tracer* tracer)
    : tracer_(tracer), spans_(tracer != nullptr ? &tracer->host_buffer() : nullptr) {
  calibrate_host_clock();
  stack_.reserve(16);
  calibrate();
}

HostTimer::LayerId HostTimer::layer(std::string_view name) {
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    if (layers_[i].name == name) return static_cast<LayerId>(i);
  }
  const auto id = static_cast<LayerId>(layers_.size());
  layers_.push_back(LayerTotal{std::string{name}});
  if (tracer_ != nullptr) tracer_->name_host_layer(id, name);
  return id;
}

void HostTimer::open(LayerId layer) {
  stack_.push_back(Open{layer});
  // Read last, so the bookkeeping above stays outside the measured interval.
  stack_.back().start = host_now_ns();
}

void HostTimer::close() {
  const std::uint64_t end = host_now_ns();
  const Open entry = stack_.back();
  stack_.pop_back();
  const std::uint64_t raw = end - entry.start;
  LayerTotal& total = layers_[entry.layer];
  ++total.calls;
  total.raw_ns += raw;
  total.nested_calls += entry.nested_calls;
  total.nested_ns += entry.nested_ns;
  if (!stack_.empty()) {
    ++stack_.back().nested_calls;
    stack_.back().nested_ns += raw;
  }
  if (spans_ != nullptr) {
    trace::Record rec;
    rec.kind = trace::RecKind::HostSpan;
    rec.track = trace::Track::Host;
    rec.start = static_cast<std::int64_t>(entry.start);
    rec.dur = static_cast<std::int64_t>(raw);
    rec.arg = entry.layer;
    spans_->append(rec);
  }
}

void HostTimer::calibrate() {
  // Empty timed calls back to back, in the regime of the timed run: with a
  // tracer their spans go to a scratch buffer of the same kind. Medians over
  // trials filter preemption.
  constexpr std::size_t kCalls = 4096;
  constexpr int kTrials = 9;
  trace::Buffer scratch{spans_ != nullptr ? kCalls * kTrials : 1};
  trace::Buffer* const spans = spans_;
  if (spans != nullptr) spans_ = &scratch;
  layers_.push_back(LayerTotal{"calibration"});
  std::vector<double> self;
  std::vector<double> pair;
  for (int trial = 0; trial < kTrials; ++trial) {
    layers_[0] = LayerTotal{};
    const std::uint64_t start = host_now_ns();
    for (std::size_t i = 0; i < kCalls; ++i) {
      const Scope scope{*this, 0};
    }
    pair.push_back(static_cast<double>(host_now_ns() - start) / kCalls);
    self.push_back(static_cast<double>(layers_[0].raw_ns) / kCalls);
  }
  cost_.self_ns = median(std::move(self));
  cost_.pair_ns = median(std::move(pair));
  layers_.clear();
  spans_ = spans;
}

Attribution HostTimer::attribute(std::uint64_t wall_ns) const {
  RSTP_CHECK(stack_.empty(), "attribute() inside a timed call");
  Attribution out;
  std::int64_t accounted = 0;
  for (const LayerTotal& total : layers_) {
    const auto net = static_cast<std::int64_t>(std::llround(total.net_ns(cost_)));
    out.layers.push_back(Attribution::Row{total.name, total.calls, net});
    out.timed_calls += total.calls;
    accounted += net;
  }
  out.timer_ns =
      static_cast<std::int64_t>(std::llround(cost_.pair_ns * static_cast<double>(out.timed_calls)));
  out.residual_ns = static_cast<std::int64_t>(wall_ns) - accounted - out.timer_ns;
  return out;
}

}  // namespace rstp::obs
