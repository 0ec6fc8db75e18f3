// High-level byte-transfer facade — the API a downstream user adopts.
//
// Everything below this header speaks the paper's language (bits, automata,
// ticks). Link speaks the user's: give it bytes and a timing model, it picks
// (or is told) a protocol, runs the full composition through the simulator,
// optionally verifies the execution against good(A), and hands back the
// reassembled bytes plus transfer statistics.
//
//   rstp::api::LinkOptions options;
//   options.params = rstp::core::TimingParams::make(1, 2, 16);
//   options.k = 16;
//   rstp::api::Link link{options};
//   auto result = link.transfer(payload_bytes);
//   // result.ok, result.received, result.stats.ticks_per_bit, ...
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "rstp/core/effort.h"
#include "rstp/protocols/factory.h"

namespace rstp::api {

/// Protocol selection: Auto picks the lower worst-case bound for the model
/// (β when timing is tight, γ when uncertainty is high — the E6 crossover).
enum class LinkProtocol : std::uint8_t { Auto, Alpha, Beta, Gamma, AltBit };

struct LinkOptions {
  core::TimingParams params = core::TimingParams::make(1, 2, 16);
  std::uint32_t k = 16;  ///< packet alphabet size
  LinkProtocol protocol = LinkProtocol::Auto;
  core::Environment environment = core::Environment::worst_case();
  /// Run the good(A) verifier (core::TraceChecker) on the execution as it
  /// happens; no trace is recorded. Its memory grows with the packets in
  /// flight, not with the execution.
  bool verify = false;
  std::uint64_t max_events = 100'000'000;
};

struct TransferStats {
  protocols::ProtocolKind protocol_used{};
  std::size_t payload_bytes = 0;
  std::size_t payload_bits = 0;
  std::optional<Time> last_send;      ///< t(last-send), the effort numerator
  Time completion{};                  ///< time of the final event
  double ticks_per_bit = 0;           ///< measured effort
  std::uint64_t data_packets = 0;     ///< t→r sends
  std::uint64_t ack_packets = 0;      ///< r→t sends
  std::uint64_t events = 0;
  bool verified = false;              ///< verifier ran and accepted
};

struct TransferResult {
  /// Reassembled payload (== the input iff ok).
  std::vector<std::uint8_t> received;
  TransferStats stats;
  /// Transfer completed, bytes match, and (when requested) the trace
  /// verified against good(A).
  bool ok = false;
};

class Link {
 public:
  /// Validates options (throws rstp::ContractViolation on bad parameters).
  explicit Link(LinkOptions options);

  /// Transfers `payload` across the modeled channel. Each call is an
  /// independent run (fresh automata, fresh channel).
  [[nodiscard]] TransferResult transfer(std::span<const std::uint8_t> payload) const;

  /// The protocol Auto resolves to under these options.
  [[nodiscard]] protocols::ProtocolKind resolved_protocol() const { return resolved_; }

  /// Bound-based recommendation (the decision Auto makes).
  [[nodiscard]] static protocols::ProtocolKind recommend(const core::TimingParams& params,
                                                         std::uint32_t k);

 private:
  LinkOptions options_;
  protocols::ProtocolKind resolved_;
};

/// MSB-first bit (de)serialization used by Link; exposed for interop/tests.
[[nodiscard]] std::vector<ioa::Bit> bytes_to_bits(std::span<const std::uint8_t> bytes);
/// Requires bits.size() to be a multiple of 8.
[[nodiscard]] std::vector<std::uint8_t> bits_to_bytes(std::span<const ioa::Bit> bits);

}  // namespace rstp::api
