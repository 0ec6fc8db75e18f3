#include "rstp/obs/trace.h"

#include <algorithm>
#include <array>
#include <limits>
#include <optional>
#include <ostream>
#include <string>

#include "rstp/common/check.h"
#include "rstp/obs/json.h"
#include "rstp/obs/metrics.h"

namespace rstp::obs::trace {

std::string_view to_string(Name name) {
  switch (name) {
    case Name::Send:
      return "send";
    case Name::Recv:
      return "recv";
    case Name::Write:
      return "write";
    case Name::Idle:
      return "idle";
    case Name::BlockEncode:
      return "block_encode";
    case Name::BlockDecode:
      return "block_decode";
    case Name::AckRound:
      return "ack_round";
    case Name::PktData:
      return "pkt_data";
    case Name::PktAck:
      return "pkt_ack";
    case Name::FaultDrop:
      return "fault_drop";
    case Name::FaultDuplicate:
      return "fault_duplicate";
    case Name::FaultLate:
      return "fault_late";
    case Name::FaultCorrupt:
      return "fault_corrupt";
  }
  RSTP_UNREACHABLE("unknown trace name");
}

// ---------------------------------------------------------------------------
// Buffer

Buffer::Buffer(std::size_t capacity) : capacity_(capacity) {
  RSTP_CHECK_GE(capacity, std::size_t{1}, "trace buffer needs a positive capacity");
  records_.reserve(capacity_);
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

[[nodiscard]] int pid_of(Track track) {
  switch (track) {
    case Track::Transmitter:
      return 1;
    case Track::Channel:
      return 2;
    case Track::Receiver:
      return 3;
    case Track::Host:
      return 100;
  }
  RSTP_UNREACHABLE("unknown trace track");
}

}  // namespace

Tracer::Tracer(TraceConfig config) : model_(config.capacity), host_(config.capacity) {}

void Tracer::name_host_layer(std::uint64_t layer, std::string_view name) {
  if (host_layers_.size() <= layer) host_layers_.resize(layer + 1);
  host_layers_[layer] = name;
}

std::uint64_t Tracer::dropped() const { return model_.dropped() + host_.dropped(); }

// ---------------------------------------------------------------------------
// Chrome Trace Event Format export

namespace {

class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) { os_ << "{\"traceEvents\":[\n"; }

  void meta(std::string_view what, int pid, std::optional<int> tid, std::string_view name) {
    sep();
    os_ << "{\"ph\":\"M\",\"name\":" << json_quote(what) << ",\"pid\":" << pid;
    if (tid.has_value()) os_ << ",\"tid\":" << *tid;
    os_ << ",\"args\":{\"name\":" << json_quote(name) << "}}";
  }

  void sep() {
    if (!first_) os_ << ",\n";
    first_ = false;
  }

  std::ostream& os() { return os_; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

[[nodiscard]] int model_tid(const Record& rec) {
  return rec.track == Track::Channel ? static_cast<int>(rec.lane)
                                     : static_cast<int>(rec.session);
}

void write_model_record(EventWriter& w, const Record& rec) {
  std::ostream& os = w.os();
  const int pid = pid_of(rec.track);
  const int tid = model_tid(rec);
  switch (rec.kind) {
    case RecKind::ModelSpan: {
      w.sep();
      os << "{\"ph\":\"X\",\"name\":" << json_quote(to_string(rec.name))
         << ",\"cat\":\"model\",\"pid\":" << pid << ",\"tid\":" << tid
         << ",\"ts\":" << rec.start << ",\"dur\":" << rec.dur;
      os << ",\"args\":{";
      switch (rec.name) {
        case Name::Send:
        case Name::Recv:
        case Name::PktData:
        case Name::PktAck:
          os << "\"payload\":" << rec.arg;
          if (rec.has_flow) os << ",\"seq\":" << rec.flow_id;
          break;
        case Name::Write:
          os << "\"bit\":" << rec.arg;
          break;
        case Name::BlockEncode:
        case Name::BlockDecode:
        case Name::AckRound:
          os << "\"count\":" << rec.arg;
          break;
        case Name::FaultDrop:
        case Name::FaultDuplicate:
        case Name::FaultLate:
        case Name::FaultCorrupt:
          os << "\"payload\":" << rec.arg << ",\"seq\":" << rec.flow_id;
          break;
        case Name::Idle:
          break;
      }
      os << "}}";
      return;
    }
    case RecKind::FlowStart:
      w.sep();
      os << "{\"ph\":\"s\",\"name\":" << json_quote(to_string(rec.name))
         << ",\"cat\":\"flow\",\"id\":" << rec.flow_id << ",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"ts\":" << rec.start << "}";
      return;
    case RecKind::FlowFinish:
      w.sep();
      os << "{\"ph\":\"f\",\"bp\":\"e\",\"name\":" << json_quote(to_string(rec.name))
         << ",\"cat\":\"flow\",\"id\":" << rec.flow_id << ",\"pid\":" << pid
         << ",\"tid\":" << tid << ",\"ts\":" << rec.start << "}";
      return;
    case RecKind::HostSpan:
      return;  // host spans never land in the model buffer
  }
}

}  // namespace

void Tracer::write_chrome_json(std::ostream& os) const {
  EventWriter w{os};

  // Track metadata. Sessions/lanes actually used decide the thread rows.
  bool lanes_used[256] = {};
  std::vector<std::uint32_t> session_ids;
  for (const Record& rec : model_.records()) {
    if (rec.track == Track::Channel) {
      lanes_used[rec.lane] = true;
    } else if (rec.kind == RecKind::ModelSpan || rec.kind == RecKind::FlowStart ||
               rec.kind == RecKind::FlowFinish) {
      if (std::find(session_ids.begin(), session_ids.end(), rec.session) ==
          session_ids.end()) {
        session_ids.push_back(rec.session);
      }
    }
  }
  w.meta("process_name", pid_of(Track::Transmitter), std::nullopt, "model: transmitter");
  w.meta("process_name", pid_of(Track::Channel), std::nullopt, "model: channel");
  w.meta("process_name", pid_of(Track::Receiver), std::nullopt, "model: receiver");
  for (const std::uint32_t session : session_ids) {
    const std::string label = "session " + std::to_string(session);
    w.meta("thread_name", pid_of(Track::Transmitter), static_cast<int>(session), label);
    w.meta("thread_name", pid_of(Track::Receiver), static_cast<int>(session), label);
  }
  for (int lane = 0; lane < 256; ++lane) {
    if (!lanes_used[lane]) continue;
    w.meta("thread_name", pid_of(Track::Channel), lane,
           lane == kFaultLane ? "faults" : "lane " + std::to_string(lane));
  }

  const std::vector<Record>& host_spans = host_.records();
  std::int64_t host_base = std::numeric_limits<std::int64_t>::max();
  for (const Record& rec : host_spans) host_base = std::min(host_base, rec.start);
  if (!host_spans.empty()) {
    w.meta("process_name", pid_of(Track::Host), std::nullopt, "host: layers");
    w.meta("thread_name", pid_of(Track::Host), 0, "thread 0");
  }

  for (const Record& rec : model_.records()) write_model_record(w, rec);

  // Host spans: rebase to the earliest span and convert ns → µs (Chrome's ts
  // unit), keeping sub-µs precision as a fraction.
  for (const Record& rec : host_spans) {
    if (rec.arg >= host_layers_.size()) continue;
    w.sep();
    os << "{\"ph\":\"X\",\"name\":" << json_quote(host_layers_[rec.arg])
       << ",\"cat\":\"host\",\"pid\":" << pid_of(Track::Host) << ",\"tid\":0"
       << ",\"ts\":" << json_number(static_cast<double>(rec.start - host_base) / 1000.0)
       << ",\"dur\":" << json_number(static_cast<double>(rec.dur) / 1000.0) << "}";
  }

  os << "\n],\"otherData\":{\"schema\":\"rstp-trace-v1\",\"tick\":\"1us\","
     << "\"host_clock\":" << json_quote(to_string(host_clock_source()))
     << ",\"dropped\":" << dropped() << "}}\n";
}

// ---------------------------------------------------------------------------
// Summary

Summary summarize(const Tracer& tracer) {
  Summary s;
  s.dropped = tracer.dropped();
  s.host_spans = tracer.host_buffer().records().size();
  constexpr std::size_t kDelayBuckets = 64;
  std::array<std::uint64_t, kDelayBuckets> buckets{};
  for (const Record& rec : tracer.model_buffer().records()) {
    switch (rec.kind) {
      case RecKind::ModelSpan:
        ++s.model_spans;
        if (rec.track == Track::Channel && rec.name == Name::PktData &&
            rec.lane != kFaultLane) {
          ++s.data_delivered;
          const auto bucket = static_cast<std::size_t>(std::min<std::int64_t>(
              std::max<std::int64_t>(rec.dur, 0), kDelayBuckets - 1));
          ++buckets[bucket];
        }
        break;
      case RecKind::FlowStart:
      case RecKind::FlowFinish:
        ++s.flow_events;
        break;
      case RecKind::HostSpan:
        break;
    }
  }
  if (s.data_delivered > 0) {
    s.delay_p50 = static_cast<std::int64_t>(
        nearest_rank_bucket(buckets.data(), buckets.size(), s.data_delivered, 50));
    s.delay_p95 = static_cast<std::int64_t>(
        nearest_rank_bucket(buckets.data(), buckets.size(), s.data_delivered, 95));
    s.delay_p99 = static_cast<std::int64_t>(
        nearest_rank_bucket(buckets.data(), buckets.size(), s.data_delivered, 99));
  }
  return s;
}

// ---------------------------------------------------------------------------
// ModelRecorder

namespace {
constexpr std::size_t kMaxLanes = 64;

[[nodiscard]] Track track_of(ioa::ProcessId id) {
  return id == ioa::ProcessId::Transmitter ? Track::Transmitter : Track::Receiver;
}

[[nodiscard]] Name packet_name(const ioa::Packet& packet) {
  return packet.direction == ioa::Packet::Direction::TransmitterToReceiver ? Name::PktData
                                                                           : Name::PktAck;
}

[[nodiscard]] Name fault_name(fault::FaultKind kind) {
  switch (kind) {
    case fault::FaultKind::Drop:
      return Name::FaultDrop;
    case fault::FaultKind::Duplicate:
      return Name::FaultDuplicate;
    case fault::FaultKind::Late:
      return Name::FaultLate;
    case fault::FaultKind::Corrupt:
      return Name::FaultCorrupt;
  }
  RSTP_UNREACHABLE("unknown fault kind");
}
}  // namespace

ModelRecorder::ModelRecorder(Tracer& tracer, std::uint32_t session)
    : tracer_(&tracer), buffer_(&tracer.model_buffer()), session_(session) {
  lane_busy_until_.reserve(kMaxLanes);  // all swimlane growth preallocated
}

void ModelRecorder::close_idle(ProcessTrack& track, Track where) {
  if (!track.idle_open) return;
  buffer_->append({.start = track.idle_start, .dur = track.idle_last - track.idle_start,
                   .name = Name::Idle, .track = where, .session = session_});
  track.idle_open = false;
}

void ModelRecorder::note_counters(ioa::ProcessId id, std::int64_t at,
                                  const ProtocolCounters& counters) {
  ProcessTrack& track = tracks_[static_cast<std::size_t>(id)];
  const Track where = track_of(id);
  if (counters.blocks_encoded > track.prev.blocks_encoded) {
    const std::int64_t start = block_open_ ? block_start_ : at;
    buffer_->append({.start = start, .dur = at - start, .arg = counters.blocks_encoded,
                     .name = Name::BlockEncode, .track = where, .session = session_});
    block_open_ = false;
  }
  if (counters.blocks_decoded > track.prev.blocks_decoded) {
    buffer_->append({.start = at, .arg = counters.blocks_decoded, .name = Name::BlockDecode,
                     .track = where, .session = session_});
  }
  if (counters.acks_sent > track.prev.acks_sent) {
    buffer_->append({.start = at, .arg = counters.acks_sent, .name = Name::AckRound,
                     .track = where, .session = session_});
  }
  track.prev = counters;
}

void ModelRecorder::on_event(const ioa::TimedEvent& event, const sim::EventContext& context) {
  const ioa::Action& action = event.action;
  const ioa::Packet& packet = action.packet;
  const std::int64_t t = event.time.ticks();
  const std::uint64_t seq = context.send_seq;
  const bool delivery = event.actor == ioa::Actor::Channel;
  const ioa::ProcessId id = delivery                                 ? packet.destination()
                            : event.actor == ioa::Actor::Transmitter ? ioa::ProcessId::Transmitter
                                                                     : ioa::ProcessId::Receiver;
  const Track where = track_of(id);
  ProcessTrack& track = tracks_[static_cast<std::size_t>(id)];
  if (delivery) {
    const std::int64_t sent = context.sent_at.ticks();
    buffer_->append({.start = t, .flow_id = seq, .arg = packet.payload, .name = Name::Recv,
                     .track = where, .has_flow = true, .session = session_});
    buffer_->append({.start = t, .flow_id = seq, .kind = RecKind::FlowFinish,
                     .name = packet_name(packet), .track = where, .has_flow = true,
                     .session = session_});
    buffer_->append({.start = sent, .dur = t - sent, .flow_id = seq, .arg = packet.payload,
                     .name = packet_name(packet), .track = Track::Channel,
                     .lane = assign_lane(sent, t), .has_flow = true, .session = session_});
  } else if (action.kind == ioa::ActionKind::Internal) {
    if (!track.idle_open) {
      track.idle_open = true;
      track.idle_start = t;
    }
    track.idle_last = t;
  } else {
    close_idle(track, where);
    if (action.kind == ioa::ActionKind::Write) {
      buffer_->append({.start = t, .arg = action.message, .name = Name::Write, .track = where,
                       .session = session_});
    }
    if (action.kind == ioa::ActionKind::Send && id == ioa::ProcessId::Transmitter &&
        !block_open_) {
      block_open_ = true;
      block_start_ = t;
    }
  }
  if (context.counters != nullptr) note_counters(id, t, context.counters->protocol_counters());
  if (action.kind == ioa::ActionKind::Send) {
    buffer_->append({.start = t, .flow_id = seq, .arg = packet.payload, .name = Name::Send,
                     .track = where, .has_flow = true, .session = session_});
    buffer_->append({.start = t, .flow_id = seq, .kind = RecKind::FlowStart,
                     .name = packet_name(packet), .track = where, .has_flow = true,
                     .session = session_});
  }
}

std::uint8_t ModelRecorder::assign_lane(std::int64_t sent_at, std::int64_t deliver_at) {
  // Deterministic greedy interval packing: the lowest lane free by sent_at,
  // else a fresh lane (preallocated up to kMaxLanes), else the lane that
  // frees up first (lowest index on ties). Zero-duration flights still
  // occupy their instant so same-tick flights fan out across lanes.
  const std::int64_t busy_until = deliver_at + (deliver_at == sent_at ? 1 : 0);
  for (std::size_t i = 0; i < lane_busy_until_.size(); ++i) {
    if (lane_busy_until_[i] <= sent_at) {
      lane_busy_until_[i] = busy_until;
      return static_cast<std::uint8_t>(i);
    }
  }
  if (lane_busy_until_.size() < kMaxLanes) {
    lane_busy_until_.push_back(busy_until);
    return static_cast<std::uint8_t>(lane_busy_until_.size() - 1);
  }
  std::size_t best = 0;
  for (std::size_t i = 1; i < lane_busy_until_.size(); ++i) {
    if (lane_busy_until_[i] < lane_busy_until_[best]) best = i;
  }
  lane_busy_until_[best] = busy_until;
  return static_cast<std::uint8_t>(best);
}

void ModelRecorder::on_finish(Time end, const std::vector<fault::FaultEvent>& faults) {
  close_idle(tracks_[0], Track::Transmitter);
  close_idle(tracks_[1], Track::Receiver);
  if (block_open_) {
    // A block still being encoded when the run ended (event cap, faults):
    // emit the open span so the truncation is visible on the timeline.
    buffer_->append({.start = block_start_, .dur = end.ticks() - block_start_,
                     .arg = tracks_[0].prev.blocks_encoded + 1, .name = Name::BlockEncode,
                     .track = Track::Transmitter, .session = session_});
    block_open_ = false;
  }
  for (const fault::FaultEvent& fault : faults) {
    buffer_->append({.start = fault.at.ticks(), .flow_id = fault.send_seq,
                     .arg = fault.injected.payload, .name = fault_name(fault.kind),
                     .track = Track::Channel, .lane = kFaultLane, .has_flow = true,
                     .session = session_});
  }
}

}  // namespace rstp::obs::trace
