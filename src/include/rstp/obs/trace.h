// rstp::obs::trace — a causal span tracer with Chrome-trace/Perfetto export.
//
// Where metrics (metrics.h, run_metrics.h) aggregate, the tracer keeps the
// *timeline*: one record per interesting thing that happened, in two clock
// domains that never mix:
//
//   * model time — integral ticks on the simulated execution. Protocol
//     lifecycle spans (block encode, idle gaps, decode, ack rounds), one
//     in-flight span per packet on the channel track, and packet-lineage
//     flow events linking each send → fault decision → delivery. Pure
//     functions of the execution: a fixed seed yields a byte-identical
//     export.
//   * host time — calibrated wall-clock nanoseconds (common/time.h). An
//     obs::HostTimer constructed with this Tracer (obs/host_timer.h) writes
//     one profiling span per timed layer call.
//
// Recording is strictly opt-in and bitwise-invisible: every hook is a pure
// reader of simulation state, so results with tracing on/off and across
// thread counts stay identical (pinned by tests/span_trace_test.cpp).
// Buffers are preallocated at construction — the hot path is a bounds check
// and a POD copy, never an allocation; overflow increments a drop counter
// instead.
//
// The exporter writes Chrome Trace Event Format JSON (schema rstp-trace-v1)
// that opens directly in Perfetto (ui.perfetto.dev) or chrome://tracing:
// ph "X" complete spans, ph "s"/"f" flows, pid = actor (1 transmitter,
// 2 channel, 3 receiver, 100 host), tid = session for the process tracks,
// swimlane for the channel's overlapping in-flight spans. Model ticks are
// rendered 1 tick = 1 µs; host spans are rebased to the first span and
// named after their layer.
// See docs/OBSERVABILITY.md § Tracing.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "rstp/common/time.h"
#include "rstp/fault/fault.h"
#include "rstp/ioa/action.h"
#include "rstp/obs/run_metrics.h"
#include "rstp/sim/observer.h"

namespace rstp::obs::trace {

/// Statically interned event names. The exporter maps these to fixed strings,
/// so a trace file for a fixed seed is byte-stable (the golden test pins it).
enum class Name : std::uint8_t {
  Send = 0,     ///< a process's send step (dur-0 span, carries the flow start)
  Recv,         ///< a delivery applied to its destination (carries the flow finish)
  Write,        ///< receiver output-tape append
  Idle,         ///< folded stretch of consecutive internal (wait/idle) steps
  BlockEncode,  ///< transmitter: first send of a block → blocks_encoded increment
  BlockDecode,  ///< receiver: blocks_decoded increment
  AckRound,     ///< receiver: acks_sent increment
  PktData,      ///< t→r packet: channel in-flight span + its flow pair
  PktAck,       ///< r→t packet: channel in-flight span + its flow pair
  FaultDrop,
  FaultDuplicate,
  FaultLate,
  FaultCorrupt,
};
[[nodiscard]] std::string_view to_string(Name name);

/// The Chrome "process" a record renders under (pid = actor).
enum class Track : std::uint8_t { Transmitter = 0, Channel, Receiver, Host };

enum class RecKind : std::uint8_t {
  ModelSpan,   ///< ph "X" in model ticks
  FlowStart,   ///< ph "s" at the send span
  FlowFinish,  ///< ph "f" (bp "e") at the recv span
  HostSpan,    ///< ph "X" in host nanoseconds (arg = HostTimer layer id)
};

/// One fixed-size trace record, either domain. POD so Buffer::append is a
/// copy.
struct Record {
  std::int64_t start = 0;      ///< model ticks, or host ns
  std::int64_t dur = 0;
  std::uint64_t flow_id = 0;   ///< packet lineage id = channel send_seq
  std::uint64_t arg = 0;       ///< payload (model) or layer id (host)
  RecKind kind = RecKind::ModelSpan;
  Name name = Name::Send;
  Track track = Track::Transmitter;
  std::uint8_t lane = 0;       ///< channel swimlane / kFaultLane
  bool has_flow = false;       ///< flow_id is a real send_seq (seq 0 is valid)
  std::uint32_t session = 0;   ///< Chrome tid of the process tracks
};

/// The channel tid reserved for fault-decision markers (in-flight swimlanes
/// count up from 0 and are capped well below this).
inline constexpr std::uint8_t kFaultLane = 255;

struct TraceConfig {
  /// Record capacity of the model buffer and of the host buffer.
  /// Overflow drops records (counted), never allocates or blocks.
  std::size_t capacity = 1 << 16;
};

/// A single-writer preallocated record buffer. append() never allocates:
/// past capacity it counts the drop and returns. The drop counter is atomic
/// only so the exporter may read it while a recording thread still owns the
/// buffer.
class Buffer {
 public:
  explicit Buffer(std::size_t capacity);

  void append(const Record& rec) {
    if (records_.size() < capacity_) {
      records_.push_back(rec);
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_;
  std::vector<Record> records_;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Owns both buffers of one tracing session: the model buffer (written by
/// the simulator through a ModelRecorder) and the host buffer (written by one
/// obs::HostTimer). Create it, run, then export; the Tracer must outlive
/// everything recording into it.
class Tracer {
 public:
  explicit Tracer(TraceConfig config = {});
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] Buffer& model_buffer() { return model_; }
  [[nodiscard]] const Buffer& model_buffer() const { return model_; }
  [[nodiscard]] Buffer& host_buffer() { return host_; }
  [[nodiscard]] const Buffer& host_buffer() const { return host_; }

  /// Names the host spans whose arg is `layer` in the export.
  void name_host_layer(std::uint64_t layer, std::string_view name);

  /// Total records dropped across both buffers (0 means the trace is complete).
  [[nodiscard]] std::uint64_t dropped() const;

  /// Serializes everything recorded so far as Chrome Trace Event Format JSON
  /// (schema rstp-trace-v1). Deterministic for a fixed model record stream.
  void write_chrome_json(std::ostream& os) const;

 private:
  Buffer model_;
  Buffer host_;
  std::vector<std::string> host_layers_;  ///< indexed by layer id
};

/// Aggregates a recorded trace for one-line CLI reporting; delay percentiles
/// use the shared nearest-rank fold over a fixed 64-bucket display window
/// (bucket i = i ticks, clamped).
struct Summary {
  std::uint64_t model_spans = 0;
  std::uint64_t flow_events = 0;
  std::uint64_t host_spans = 0;
  std::uint64_t dropped = 0;
  std::uint64_t data_delivered = 0;  ///< in-flight t→r spans (delay samples)
  std::int64_t delay_p50 = 0;
  std::int64_t delay_p95 = 0;
  std::int64_t delay_p99 = 0;
};
[[nodiscard]] Summary summarize(const Tracer& tracer);

/// Derives the protocol-lifecycle span stream from one simulation. Owned by
/// the caller (one per run) and armed as the run's sim::SimObserver. A pure
/// observer: it reads event fields and protocol counters, never touches
/// simulation state, so arming it cannot change any result bit.
class ModelRecorder final : public sim::SimObserver {
 public:
  explicit ModelRecorder(Tracer& tracer, std::uint32_t session = 0);

  /// A delivery's recv, flow finish and flight, or a local step's idle,
  /// write and block records; then the changed process's new block and ack
  /// records; then a send's span and flow start.
  void on_event(const ioa::TimedEvent& event, const sim::EventContext& context) override;
  /// Flushes open idle/block spans and emits fault markers.
  void on_finish(Time end, const std::vector<fault::FaultEvent>& faults) override;

 private:
  struct ProcessTrack {
    bool idle_open = false;
    std::int64_t idle_start = 0;
    std::int64_t idle_last = 0;
    ProtocolCounters prev{};
  };

  void close_idle(ProcessTrack& track, Track where);
  void note_counters(ioa::ProcessId id, std::int64_t at, const ProtocolCounters& counters);
  [[nodiscard]] std::uint8_t assign_lane(std::int64_t sent_at, std::int64_t deliver_at);

  Tracer* tracer_;
  Buffer* buffer_;
  std::uint32_t session_;
  ProcessTrack tracks_[2];  ///< indexed by ProcessId
  bool block_open_ = false;
  std::int64_t block_start_ = 0;
  std::vector<std::int64_t> lane_busy_until_;  ///< preallocated swimlanes
};

}  // namespace rstp::obs::trace
