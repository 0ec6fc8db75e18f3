// Running and verifying protocols under the generalized (§7) model.
//
// The pieces already exist — per-process schedulers, a channel with a
// delivery window, protocol block/wait overrides, a verifier with
// per-process gap laws — this header wires them together behind the same
// surface core/effort.h offers for the base model.
#pragma once

#include <cstdint>

#include "rstp/core/effort.h"
#include "rstp/core/verify.h"
#include "rstp/general/params.h"

namespace rstp::general {

/// Environment knobs for the general model: the base model's, with delays
/// drawn from [d_lo, d_hi] (Adversarial falls back to the max-delay FIFO
/// policy when the window has zero width, where batching is impossible).
using GeneralEnvironment = core::Environment;

/// Builds a ProtocolConfig whose derived sizes come from the general model:
/// β gets block/wait = beta_block()/beta_wait(), γ gets block = delta2(),
/// α and altbit use the envelope parameters directly.
[[nodiscard]] protocols::ProtocolConfig make_general_config(protocols::ProtocolKind kind,
                                                            const GeneralTimingParams& params,
                                                            std::uint32_t k,
                                                            std::vector<ioa::Bit> input);

/// Instantiates, runs, and reports — the general-model run_protocol.
[[nodiscard]] core::ProtocolRun run_general_protocol(protocols::ProtocolKind kind,
                                                     const GeneralTimingParams& params,
                                                     std::uint32_t k,
                                                     std::vector<ioa::Bit> input,
                                                     const GeneralEnvironment& env,
                                                     bool record_trace = true,
                                                     std::uint64_t max_events = 50'000'000);

/// verify_trace with the general model's per-process gap laws and delivery
/// window.
[[nodiscard]] core::VerifyResult verify_general_trace(const ioa::TimedTrace& trace,
                                                      const GeneralTimingParams& params,
                                                      std::span<const ioa::Bit> input,
                                                      bool require_complete = true);

/// Worst-case effort measurement under the general model (random input).
[[nodiscard]] core::EffortMeasurement measure_general_effort(protocols::ProtocolKind kind,
                                                             const GeneralTimingParams& params,
                                                             std::uint32_t k, std::size_t n,
                                                             const GeneralEnvironment& env,
                                                             std::uint64_t input_seed = 0xC0FFEE);

}  // namespace rstp::general
