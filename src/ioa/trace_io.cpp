#include "rstp/ioa/trace_io.h"

#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

#include "rstp/common/check.h"
#include "rstp/common/parse.h"

namespace rstp::ioa {

namespace {

const char* actor_token(Actor a) {
  switch (a) {
    case Actor::Transmitter:
      return "t";
    case Actor::Receiver:
      return "r";
    case Actor::Channel:
      return "c";
  }
  return "?";
}

Actor parse_actor(const std::string& token, std::size_t line_number) {
  if (token == "t") return Actor::Transmitter;
  if (token == "r") return Actor::Receiver;
  if (token == "c") return Actor::Channel;
  throw ModelError("trace parse: unknown actor '" + token + "' on line " +
                   std::to_string(line_number));
}

const char* direction_token(Packet::Direction d) {
  return d == Packet::Direction::TransmitterToReceiver ? "tr" : "rt";
}

Packet::Direction parse_direction(const std::string& token, std::size_t line_number) {
  if (token == "tr") return Packet::Direction::TransmitterToReceiver;
  if (token == "rt") return Packet::Direction::ReceiverToTransmitter;
  throw ModelError("trace parse: unknown direction '" + token + "' on line " +
                   std::to_string(line_number));
}

}  // namespace

void write_trace(std::ostream& os, const TimedTrace& trace) {
  os << "# rstp timed trace, " << trace.size() << " events\n";
  for (const TimedEvent& e : trace.events()) {
    os << e.seq << ' ' << e.time.ticks() << ' ' << actor_token(e.actor) << ' ';
    switch (e.action.kind) {
      case ActionKind::Send:
        os << "send " << direction_token(e.action.packet.direction) << ' '
           << e.action.packet.payload;
        break;
      case ActionKind::Recv:
        os << "recv " << direction_token(e.action.packet.direction) << ' '
           << e.action.packet.payload;
        break;
      case ActionKind::Write:
        os << "write " << static_cast<int>(e.action.message);
        break;
      case ActionKind::Internal:
        os << "internal " << e.action.internal_id;
        if (const std::string_view name = internal_name(e.action.internal_id); !name.empty()) {
          os << ' ' << name;
        }
        break;
    }
    os << '\n';
  }
}

std::string trace_to_string(const TimedTrace& trace) {
  std::ostringstream os;
  write_trace(os, trace);
  return os.str();
}

TimedTrace parse_trace(std::istream& is) {
  TimedTrace trace;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    const auto malformed = [&](const std::string& what) {
      return ModelError("trace parse: malformed " + what + " on line " +
                        std::to_string(line_number));
    };
    std::vector<std::string> tokens;
    std::istringstream fields{line};
    for (std::string token; fields >> token;) tokens.push_back(std::move(token));
    // Every count is exact: a trailing token is as malformed as a missing one.
    if (tokens.size() < 4) throw malformed("line");
    const auto seq = parse_number<std::uint64_t>(tokens[0]);
    const auto time_ticks = parse_number<std::int64_t>(tokens[1]);
    if (!seq.has_value() || !time_ticks.has_value()) throw malformed("line");
    TimedEvent event;
    event.seq = *seq;
    event.time = Time{*time_ticks};
    event.actor = parse_actor(tokens[2], line_number);
    const std::string& kind = tokens[3];
    if (kind == "send" || kind == "recv") {
      const auto payload =
          tokens.size() == 6 ? parse_number<std::uint32_t>(tokens[5]) : std::nullopt;
      if (!payload.has_value()) throw malformed("packet");
      const Packet packet{parse_direction(tokens[4], line_number), *payload};
      event.action = kind == "send" ? Action::send(packet) : Action::recv(packet);
    } else if (kind == "write") {
      if (tokens.size() != 5 || (tokens[4] != "0" && tokens[4] != "1")) throw malformed("write");
      event.action = Action::write(static_cast<Bit>(tokens[4] == "1"));
    } else if (kind == "internal") {
      // The optional trailing name is a label; identity is the id.
      const auto id = tokens.size() == 5 || tokens.size() == 6
                          ? parse_number<std::uint16_t>(tokens[4])
                          : std::nullopt;
      if (!id.has_value()) throw malformed("internal");
      event.action = Action::internal(*id);
    } else {
      throw ModelError("trace parse: unknown action kind '" + kind + "' on line " +
                       std::to_string(line_number));
    }
    try {
      trace.append(event);
    } catch (const ContractViolation&) {
      throw ModelError("trace parse: non-monotone event order at line " +
                       std::to_string(line_number));
    }
  }
  return trace;
}

TimedTrace parse_trace_string(const std::string& text) {
  std::istringstream is{text};
  return parse_trace(is);
}

}  // namespace rstp::ioa
