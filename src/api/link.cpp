#include "rstp/api/link.h"

#include "rstp/common/check.h"
#include "rstp/core/bounds.h"
#include "rstp/core/verify.h"

namespace rstp::api {

namespace {

protocols::ProtocolKind to_kind(LinkProtocol p, const core::TimingParams& params,
                                std::uint32_t k) {
  switch (p) {
    case LinkProtocol::Auto:
      return Link::recommend(params, k);
    case LinkProtocol::Alpha:
      return protocols::ProtocolKind::Alpha;
    case LinkProtocol::Beta:
      return protocols::ProtocolKind::Beta;
    case LinkProtocol::Gamma:
      return protocols::ProtocolKind::Gamma;
    case LinkProtocol::AltBit:
      return protocols::ProtocolKind::AltBit;
  }
  RSTP_UNREACHABLE("unknown link protocol");
}

}  // namespace

Link::Link(LinkOptions options)
    : options_(std::move(options)),
      resolved_(to_kind(options_.protocol, options_.params, options_.k)) {
  options_.params.validate();
  RSTP_CHECK_GE(options_.k, 2u, "alphabet must have at least two symbols");
}

protocols::ProtocolKind Link::recommend(const core::TimingParams& params, std::uint32_t k) {
  const core::BoundsReport bounds = core::compute_bounds(params, k);
  return bounds.beta_upper <= bounds.gamma_upper ? protocols::ProtocolKind::Beta
                                                 : protocols::ProtocolKind::Gamma;
}

TransferResult Link::transfer(std::span<const std::uint8_t> payload) const {
  protocols::ProtocolConfig cfg;
  cfg.params = options_.params;
  cfg.k = options_.k;
  cfg.input = bytes_to_bits(payload);

  // The checker watches the run online, so no trace is recorded.
  std::optional<core::TraceChecker> checker;
  if (options_.verify) checker.emplace(options_.params, cfg.input);
  const core::ProtocolRun run =
      core::run_protocol(resolved_, cfg, options_.environment, /*record_trace=*/false,
                         options_.max_events, checker ? &*checker : nullptr);

  TransferResult result;
  result.stats.protocol_used = resolved_;
  result.stats.payload_bytes = payload.size();
  result.stats.payload_bits = cfg.input.size();
  result.stats.last_send = run.result.last_transmitter_send;
  result.stats.completion = run.result.end_time;
  result.stats.data_packets = run.result.transmitter_sends;
  result.stats.ack_packets = run.result.receiver_sends;
  result.stats.events = run.result.event_count;
  result.stats.ticks_per_bit = core::effort_of(run, cfg.input.size()).effort;

  bool verified_ok = true;
  if (checker) {
    verified_ok = checker->finish().ok();
    result.stats.verified = verified_ok;
  }

  if (run.output_correct && run.result.quiescent) {
    result.received = bits_to_bytes(run.result.output);
  }
  result.ok = run.output_correct && run.result.quiescent && verified_ok;
  return result;
}

std::vector<ioa::Bit> bytes_to_bits(std::span<const std::uint8_t> bytes) {
  std::vector<ioa::Bit> bits;
  bits.reserve(bytes.size() * 8);
  for (const std::uint8_t byte : bytes) {
    for (int bit = 7; bit >= 0; --bit) {
      bits.push_back(static_cast<ioa::Bit>((byte >> bit) & 1u));
    }
  }
  return bits;
}

std::vector<std::uint8_t> bits_to_bytes(std::span<const ioa::Bit> bits) {
  RSTP_CHECK_EQ(bits.size() % 8, std::size_t{0}, "bit count must be a byte multiple");
  std::vector<std::uint8_t> bytes(bits.size() / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    RSTP_CHECK(bits[i] <= 1, "bits must be 0/1");
    bytes[i / 8] = static_cast<std::uint8_t>((bytes[i / 8] << 1) | bits[i]);
  }
  return bytes;
}

}  // namespace rstp::api
