// rstp::obs::HostTimer — host wall-clock time, attributed at call boundaries.
//
// Host time is the one quantity of a run that is not reproducible, so it
// never enters RunResult or any metric; it is measured only on request
// (`rstp run --timing`). The recorder times calls into named layers. The
// simulator carries no timing code: sim::Session installs decorators
// (sim/host_timing.h) around the automata, the step schedulers and the
// delivery policy when SimConfig::host_timer is set.
//
// Per layer the recorder keeps the call count and the raw nanoseconds, plus
// the timed calls nested directly inside those calls and their raw time. Its
// own cost is calibrated at construction: `self_ns` is what an empty timed
// call reports as its own duration, `pair_ns` what it adds to the code
// around it. Net of both, the layers, the timers and the untimed remainder
// add up to a measured wall time exactly (attribute()).
//
// Single-threaded: time one thread's work with one recorder. With a Tracer,
// every timed call is also a host span on the tracer's pid-100 track.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rstp::obs {

namespace trace {
class Buffer;
class Tracer;
}  // namespace trace

/// What timing one call costs: `self_ns` lands inside the call's own
/// measured duration, `pair_ns` is all it adds to the code around it.
struct TimerCost {
  double self_ns = 0;
  double pair_ns = 0;
};

/// One layer's timed calls. Durations are raw: they include the timers.
struct LayerTotal {
  std::string name;
  std::uint64_t calls = 0;
  std::uint64_t raw_ns = 0;
  std::uint64_t nested_calls = 0;  ///< timed calls directly inside these calls
  std::uint64_t nested_ns = 0;     ///< the raw time of those nested calls

  /// Time spent in these calls themselves: raw time net of the timers' cost
  /// and of the timed calls nested in them.
  [[nodiscard]] double net_ns(const TimerCost& cost) const;
};

/// A wall time split over the layers, in whole nanoseconds:
/// Σ layers[i].net_ns + timer_ns + residual_ns is the wall time exactly.
struct Attribution {
  struct Row {
    std::string name;
    std::uint64_t calls = 0;
    std::int64_t net_ns = 0;
  };
  std::vector<Row> layers;       ///< in registration order
  std::uint64_t timed_calls = 0;
  std::int64_t timer_ns = 0;     ///< the timers' own cost: pair_ns per timed call
  std::int64_t residual_ns = 0;  ///< time inside no timed call: the caller's own work
};

class HostTimer {
 public:
  using LayerId = std::uint32_t;

  /// Calibrates the host clock and the recorder's own cost. `tracer`
  /// (non-owning, may be null) receives one host span per timed call and
  /// must outlive the recorder.
  explicit HostTimer(trace::Tracer* tracer = nullptr);
  HostTimer(const HostTimer&) = delete;
  HostTimer& operator=(const HostTimer&) = delete;

  /// Registers the layer called `name`, or looks it up.
  [[nodiscard]] LayerId layer(std::string_view name);

  /// Times one call into a layer for the scope's lifetime.
  class Scope {
   public:
    Scope(HostTimer& timer, LayerId layer) : timer_(timer) { timer_.open(layer); }
    ~Scope() { timer_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    HostTimer& timer_;
  };

  [[nodiscard]] const TimerCost& cost() const { return cost_; }
  [[nodiscard]] const std::vector<LayerTotal>& layers() const { return layers_; }

  /// Splits `wall_ns`, host time measured around all of the timed calls.
  [[nodiscard]] Attribution attribute(std::uint64_t wall_ns) const;

 private:
  struct Open {
    LayerId layer = 0;
    std::uint64_t start = 0;
    std::uint64_t nested_calls = 0;
    std::uint64_t nested_ns = 0;
  };

  void open(LayerId layer);
  void close();
  void calibrate();

  trace::Tracer* tracer_;
  trace::Buffer* spans_;  ///< the tracer's host buffer; null without a tracer
  std::vector<LayerTotal> layers_;
  std::vector<Open> stack_;
  TimerCost cost_;
};

}  // namespace rstp::obs
