// Uniform construction of (A_t, A_r) pairs — the library's main entry point
// for "give me a solution to RSTP".
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string_view>

#include "rstp/protocols/base.h"

namespace rstp::protocols {

enum class ProtocolKind : std::uint8_t {
  Alpha,     ///< §4 Figure 1 — simple r-passive, one bit per d
  Beta,      ///< §6.1 Figure 3 — block r-passive, multiset-coded
  Gamma,     ///< §6.2 Figure 4 — active, ack-gated multiset blocks
  AltBit,    ///< [BSW69] baseline — stop-and-wait, one bit per round trip
  Strawman,  ///< order-sensitive positional blocks (E7 negative exhibit)
  Indexed,   ///< [Ste76]-style unbounded-alphabet streaming (needs k >= 2|X|)
  WindowedGamma,  ///< pipelined gamma extension: 2 parity-tagged blocks in flight
};

[[nodiscard]] std::string_view to_string(ProtocolKind kind);
std::ostream& operator<<(std::ostream& os, ProtocolKind kind);
/// Inverse of to_string; nullopt for unknown names.
[[nodiscard]] std::optional<ProtocolKind> protocol_from_string(std::string_view name);

/// The alphabet `kind` runs with for an n-bit input: the indexed baseline
/// needs at least 2·max(1, n) symbols; every other protocol uses `k`.
[[nodiscard]] std::uint32_t alphabet_for(ProtocolKind kind, std::uint32_t k, std::size_t n);

/// True for the protocols in which the receiver sends no packets (P^rt = ∅).
[[nodiscard]] bool is_r_passive(ProtocolKind kind);

struct ProtocolInstance {
  std::unique_ptr<TransmitterBase> transmitter;
  std::unique_ptr<ReceiverBase> receiver;
  /// |X|: the number of writes a correct run makes, which sizes Y's buffers.
  std::size_t input_bits = 0;
  /// The kind make_protocol built (sim::Session's dispatch); unset by hand.
  std::optional<ProtocolKind> kind;
};

/// False when the multiset codec `kind` builds for `config`'s fixed block
/// plan (β, γ and windowed γ code blocks) would have tables past
/// combinatorics::MultisetCodec::kMaxTableBytes, so make_protocol would
/// throw. Allocates nothing; lets a front end reject the config up front.
[[nodiscard]] bool codec_tables_fit(ProtocolKind kind, const ProtocolConfig& config);

/// Builds a fresh transmitter/receiver pair for `kind` over `config`.
/// Throws rstp::ContractViolation on invalid configurations.
[[nodiscard]] ProtocolInstance make_protocol(ProtocolKind kind, const ProtocolConfig& config);

/// All kinds, for parameterized sweeps.
inline constexpr ProtocolKind kAllProtocolKinds[] = {
    ProtocolKind::Alpha,  ProtocolKind::Beta,     ProtocolKind::Gamma,  ProtocolKind::AltBit,
    ProtocolKind::Strawman, ProtocolKind::Indexed, ProtocolKind::WindowedGamma};

/// The correct solutions from the paper (excludes the strawman exhibit).
inline constexpr ProtocolKind kPaperProtocolKinds[] = {
    ProtocolKind::Alpha, ProtocolKind::Beta, ProtocolKind::Gamma, ProtocolKind::AltBit};

}  // namespace rstp::protocols
