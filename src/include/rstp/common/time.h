// Integral model time.
//
// The paper works over real time; we discretize to 64-bit integer "ticks" so
// that every quantity in the model (step gaps, delivery deadlines, effort
// numerators) is exact and every simulation is bit-reproducible. A tick has
// no fixed physical meaning — callers pick the resolution by scaling c1, c2
// and d (e.g. 1 tick = 1 µs).
//
// `Time` is an absolute instant (ticks since the start of the execution, the
// paper's t(π) with t(first event) = 0); `Duration` is a difference of
// instants. Both are strong types: mixing them up is a compile error.
#pragma once

#include <atomic>
#include <chrono>
#include <compare>
#include <cstdint>
#include <iosfwd>
#include <limits>

#include "rstp/common/check.h"

namespace rstp {

class Duration;

/// A signed difference between two instants, in ticks. Durations appearing in
/// the model (c1, c2, d, gaps) are non-negative; negative values only arise
/// transiently in arithmetic and are rejected where the model requires
/// non-negativity.
class Duration {
 public:
  constexpr Duration() = default;
  constexpr explicit Duration(std::int64_t ticks) : ticks_(ticks) {}

  [[nodiscard]] constexpr std::int64_t ticks() const { return ticks_; }
  [[nodiscard]] constexpr bool is_negative() const { return ticks_ < 0; }

  friend constexpr auto operator<=>(Duration, Duration) = default;

  constexpr Duration& operator+=(Duration rhs) {
    ticks_ += rhs.ticks_;
    return *this;
  }
  constexpr Duration& operator-=(Duration rhs) {
    ticks_ -= rhs.ticks_;
    return *this;
  }
  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ticks_ + b.ticks_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ticks_ - b.ticks_}; }
  friend constexpr Duration operator*(Duration a, std::int64_t s) { return Duration{a.ticks_ * s}; }
  friend constexpr Duration operator*(std::int64_t s, Duration a) { return Duration{a.ticks_ * s}; }
  friend constexpr Duration operator-(Duration a) { return Duration{-a.ticks_}; }

  /// Integer division of durations (used for δ = d/c computations); caller
  /// chooses floor/ceil explicitly via the free functions below.
  [[nodiscard]] constexpr std::int64_t floor_div(Duration divisor) const {
    RSTP_CHECK(divisor.ticks_ > 0, "duration division requires a positive divisor");
    std::int64_t q = ticks_ / divisor.ticks_;
    std::int64_t r = ticks_ % divisor.ticks_;
    if (r != 0 && ((r < 0) != (divisor.ticks_ < 0))) --q;
    return q;
  }
  [[nodiscard]] constexpr std::int64_t ceil_div(Duration divisor) const {
    RSTP_CHECK(divisor.ticks_ > 0, "duration division requires a positive divisor");
    return -((-*this).floor_div(divisor));
  }

 private:
  std::int64_t ticks_ = 0;
};

/// An absolute instant on the execution timeline (ticks since time 0).
class Time {
 public:
  constexpr Time() = default;
  constexpr explicit Time(std::int64_t ticks) : ticks_(ticks) {}

  [[nodiscard]] constexpr std::int64_t ticks() const { return ticks_; }

  friend constexpr auto operator<=>(Time, Time) = default;

  friend constexpr Time operator+(Time t, Duration d) { return Time{t.ticks_ + d.ticks()}; }
  friend constexpr Time operator+(Duration d, Time t) { return t + d; }
  friend constexpr Time operator-(Time t, Duration d) { return Time{t.ticks_ - d.ticks()}; }
  friend constexpr Duration operator-(Time a, Time b) { return Duration{a.ticks_ - b.ticks_}; }

  constexpr Time& operator+=(Duration d) {
    ticks_ += d.ticks();
    return *this;
  }

  [[nodiscard]] static constexpr Time zero() { return Time{0}; }
  [[nodiscard]] static constexpr Time max() { return Time{std::numeric_limits<std::int64_t>::max()}; }

 private:
  std::int64_t ticks_ = 0;
};

/// Literal-style helpers: `ticks(5)` reads better than `Duration{5}` at call
/// sites dense with model arithmetic.
[[nodiscard]] constexpr Duration ticks(std::int64_t n) { return Duration{n}; }
[[nodiscard]] constexpr Time at_tick(std::int64_t n) { return Time{n}; }

std::ostream& operator<<(std::ostream& os, Duration d);
std::ostream& operator<<(std::ostream& os, Time t);

// ---------------------------------------------------------------------------
// Host wall-clock time (profiling only — never part of the model).
//
// Model time above is integral and bit-reproducible; host time is the other
// domain: what obs::HostTimer (obs/host_timer.h) times layer calls with, and
// what the tracer's host spans are stamped with. The default source is
// std::chrono::steady_clock. On x86-64 hosts whose CPU advertises an
// invariant TSC, calibrate_host_clock() measures the TSC rate against
// steady_clock once at startup and host_now_ns() then reads the counter
// directly — cheaper per read than a clock_gettime call, which lowers the
// cost of every timed call. Setting the environment variable RSTP_NO_TSC
// (to any value) forces the steady_clock fallback; so does a missing
// invariant-TSC bit or a failed calibration.

enum class HostClockSource : std::uint8_t {
  Steady,  ///< std::chrono::steady_clock (the portable fallback)
  Tsc,     ///< calibrated invariant rdtsc
};

/// Detects and calibrates the TSC once per process (idempotent, thread-safe).
/// Until the first call host_now_ns() reads steady_clock; after it, the best
/// available source. Callers that care about the cost of a clock read (the
/// HostTimer constructor) invoke this; everyone else may stay oblivious.
void calibrate_host_clock();

/// The source host_now_ns() currently reads.
[[nodiscard]] HostClockSource host_clock_source();
[[nodiscard]] const char* to_string(HostClockSource source);

namespace detail {

/// Calibration state for the TSC fast path. `active` flips to true only
/// after every other field is published (release/acquire pairing below), and
/// only ever flips once outside of tests.
struct HostClockState {
  std::atomic<bool> active{false};
  std::uint64_t tsc_base = 0;  ///< counter value at calibration
  std::uint64_t ns_base = 0;   ///< steady_clock ns at calibration
  std::uint64_t mult = 0;      ///< ns = (cycles * mult) >> kHostClockShift
};
inline constexpr unsigned kHostClockShift = 32;
extern HostClockState host_clock_state;

[[nodiscard]] inline std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

[[nodiscard]] inline std::uint64_t read_tsc() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_ia32_rdtsc();
#else
  return 0;
#endif
}

/// Re-runs detection + calibration, honoring the current environment. Tests
/// use this to force the RSTP_NO_TSC fallback after the process-wide
/// calibration already ran; production code calls calibrate_host_clock().
void recalibrate_host_clock_for_testing();
/// Flips between the calibrated TSC and the steady fallback without
/// re-calibrating (no-op if the TSC was never calibrated). Lets one process
/// measure both sources back to back.
void set_host_clock_source_for_testing(HostClockSource source);

}  // namespace detail

/// Current host time in nanoseconds (monotonic; epoch unspecified — only
/// differences are meaningful). Inline: with the TSC active this is one
/// counter read and a 128-bit multiply, no call.
[[nodiscard]] inline std::uint64_t host_now_ns() {
#if defined(__SIZEOF_INT128__)
  if (detail::host_clock_state.active.load(std::memory_order_acquire)) {
    const std::uint64_t cycles = detail::read_tsc() - detail::host_clock_state.tsc_base;
    return detail::host_clock_state.ns_base +
           static_cast<std::uint64_t>(
               (static_cast<unsigned __int128>(cycles) * detail::host_clock_state.mult) >>
               detail::kHostClockShift);
  }
#endif
  return detail::steady_now_ns();
}

}  // namespace rstp
