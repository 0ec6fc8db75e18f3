#include "rstp/sim/search_support.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <istream>
#include <mutex>
#include <optional>
#include <thread>

#include "rstp/common/check.h"
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

// ---------------------------------------------------------------------------
// The artifact grammar.

namespace {

[[noreturn]] void malformed(std::string_view what) {
  throw ModelError("malformed artifact: " + std::string{what});
}

/// Applies `line` to `cell` if its key is one of the cell keys.
[[nodiscard]] bool read_cell_field(ArtifactLine& line, const ArtifactCell& cell) {
  const std::string& key = line.key();
  if (key == "protocol") {
    const auto kind = protocols::protocol_from_string(line.read_word());
    if (!kind.has_value()) line.reject("unknown protocol");
    cell.protocol = *kind;
  } else if (key == "params") {
    const auto c1 = line.read_value<std::int64_t>();
    const auto c2 = line.read_value<std::int64_t>();
    const auto d = line.read_value<std::int64_t>();
    if (c1 < 1 || c2 < c1 || d < c2) line.reject("params must satisfy 0 < c1 <= c2 <= d");
    if (Duration{d}.ceil_div(Duration{c1}) > core::TimingParams::kMaxSteps) {
      line.reject("params must satisfy ceil(d/c1) <= 2^32 - 1");
    }
    cell.params = core::TimingParams::make(c1, c2, d);
  } else if (key == "k") {
    cell.k = line.read_value<std::uint32_t>();
    if (cell.k < 2) line.reject("k must be at least 2");
  } else if (key == "input_bits") {
    cell.input_bits = line.read_value<std::uint32_t>();
    if (cell.input_bits == 0) line.reject("input_bits must be positive");
  } else if (key == "input_seed") {
    cell.input_seed = line.read_value<std::uint64_t>();
  } else if (key == "max_events") {
    cell.max_events = line.read_value<std::uint64_t>();
    if (cell.max_events == 0) line.reject("max_events must be positive");
  } else {
    return false;
  }
  return true;
}

}  // namespace

ArtifactLine::ArtifactLine(std::size_t number, const std::string& raw) : number_(number) {
  // Everything from '#' on is a comment; tokens are whitespace-separated.
  std::istringstream tokens{raw.substr(0, raw.find('#'))};
  for (std::string token; tokens >> token;) {
    text_ += (text_.empty() ? "" : " ") + token;
    tokens_.push_back(std::move(token));
  }
}

const std::string& ArtifactLine::read_word() {
  if (next_ == tokens_.size()) reject("missing value");
  return tokens_[next_++];
}

void ArtifactLine::reject(std::string_view what) const {
  malformed(std::string{what} + " at line " + std::to_string(number_) + " '" + text_ + "'");
}

void ArtifactLine::expect_consumed() const {
  if (next_ != tokens_.size()) reject("trailing token '" + tokens_[next_] + "'");
}

ArtifactDocument read_artifact(std::istream& is) {
  std::optional<ArtifactLine> header;
  std::vector<ArtifactLine> lines;
  std::string raw;
  for (std::size_t number = 1; std::getline(is, raw); ++number) {
    ArtifactLine line{number, raw};
    if (line.text().empty()) continue;
    if (!header.has_value()) {
      header = std::move(line);
    } else if (line.text() == "end") {
      return ArtifactDocument{std::move(*header), std::move(lines)};
    } else {
      lines.push_back(std::move(line));
    }
  }
  malformed(header.has_value() ? "missing 'end'" : "empty document");
}

void read_artifact_fields(ArtifactDocument& doc, std::string_view header,
                          const ArtifactCell& cell,
                          const std::function<bool(ArtifactLine&)>& apply) {
  if (doc.header.text() != header) {
    doc.header.reject("expected header '" + std::string{header} + "'");
  }
  for (ArtifactLine& line : doc.lines) {
    if (!read_cell_field(line, cell) && !apply(line)) line.reject("unknown key");
    line.expect_consumed();
  }
}

void write_cell_keys(ArtifactWriter& w, protocols::ProtocolKind protocol,
                     const core::TimingParams& params, std::uint32_t k, std::uint32_t input_bits,
                     std::uint64_t input_seed) {
  w.field("protocol", protocols::to_string(protocol));
  w.field("params", params.c1.ticks(), params.c2.ticks(), params.d.ticks());
  w.field("k", k);
  w.field("input_bits", input_bits);
  w.field("input_seed", input_seed);
}

}  // namespace rstp::sim
