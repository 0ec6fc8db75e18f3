#include "rstp/protocols/factory.h"

#include <algorithm>
#include <ostream>

#include "rstp/combinatorics/multiset_codec.h"
#include "rstp/common/check.h"
#include "rstp/protocols/alpha.h"
#include "rstp/protocols/altbit.h"
#include "rstp/protocols/beta.h"
#include "rstp/protocols/block_planner.h"
#include "rstp/protocols/gamma.h"
#include "rstp/protocols/gamma_windowed.h"
#include "rstp/protocols/indexed.h"
#include "rstp/protocols/strawman.h"

namespace rstp::protocols {

std::string_view to_string(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::Alpha:
      return "alpha";
    case ProtocolKind::Beta:
      return "beta";
    case ProtocolKind::Gamma:
      return "gamma";
    case ProtocolKind::AltBit:
      return "altbit";
    case ProtocolKind::Strawman:
      return "strawman";
    case ProtocolKind::Indexed:
      return "indexed";
    case ProtocolKind::WindowedGamma:
      return "gammaw";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, ProtocolKind kind) { return os << to_string(kind); }

std::optional<ProtocolKind> protocol_from_string(std::string_view name) {
  for (const ProtocolKind kind : kAllProtocolKinds) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::uint32_t alphabet_for(ProtocolKind kind, std::uint32_t k, std::size_t n) {
  if (kind != ProtocolKind::Indexed) return k;
  return std::max(k, static_cast<std::uint32_t>(2 * std::max<std::size_t>(1, n)));
}

bool is_r_passive(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::Alpha:
    case ProtocolKind::Beta:
    case ProtocolKind::Strawman:
    case ProtocolKind::Indexed:
      return true;
    case ProtocolKind::Gamma:
    case ProtocolKind::AltBit:
    case ProtocolKind::WindowedGamma:
      return false;
  }
  RSTP_UNREACHABLE("unknown protocol kind");
}

bool codec_tables_fit(ProtocolKind kind, const ProtocolConfig& config) {
  // β codes blocks of ⌈d/c1⌉ symbols, γ of ⌊d/c2⌋, windowed γ of ⌊d/c2⌋
  // over its k/W data symbols (a W that does not divide k, the constructor
  // rejects).
  const bool windowed = kind == ProtocolKind::WindowedGamma;
  const std::uint32_t window = windowed ? config.window_override.value_or(kDefaultWindow) : 1;
  if ((kind != ProtocolKind::Beta && kind != ProtocolKind::Gamma && !windowed) || window == 0 ||
      config.k % window != 0) {
    return true;
  }
  const std::int64_t delta =
      kind == ProtocolKind::Beta ? config.params.delta1_wait() : config.params.delta2();
  return combinatorics::MultisetCodec::tables_fit(
      config.k / window, config.block_size_override.value_or(static_cast<std::uint32_t>(delta)));
}

namespace {

/// A β/γ pair reading one planner, so the receiver decodes the very plans
/// the transmitter encoded (and a fixed plan is computed once per pair).
template <class Transmitter, class Receiver>
ProtocolInstance block_pair(BlockPlanner::Discipline discipline, const ProtocolConfig& config) {
  std::shared_ptr<BlockPlanner> planner = block_planner_for(discipline, config);
  return {std::make_unique<Transmitter>(planner), std::make_unique<Receiver>(std::move(planner))};
}

/// The (A_t, A_r) pair for `kind`.
ProtocolInstance build_pair(ProtocolKind kind, const ProtocolConfig& config) {
  switch (kind) {
    case ProtocolKind::Alpha:
      return {std::make_unique<AlphaTransmitter>(config), std::make_unique<AlphaReceiver>(config)};
    case ProtocolKind::Beta:
      return block_pair<BetaTransmitter, BetaReceiver>(BlockPlanner::Discipline::TimedBlocks,
                                                       config);
    case ProtocolKind::Gamma:
      return block_pair<GammaTransmitter, GammaReceiver>(BlockPlanner::Discipline::AckedBlocks,
                                                         config);
    case ProtocolKind::AltBit:
      return {std::make_unique<AltBitTransmitter>(config),
              std::make_unique<AltBitReceiver>(config)};
    case ProtocolKind::Strawman:
      return {std::make_unique<StrawmanTransmitter>(config),
              std::make_unique<StrawmanReceiver>(config)};
    case ProtocolKind::Indexed:
      return {std::make_unique<IndexedTransmitter>(config),
              std::make_unique<IndexedReceiver>(config)};
    case ProtocolKind::WindowedGamma:
      return {std::make_unique<WindowedGammaTransmitter>(config),
              std::make_unique<WindowedGammaReceiver>(config)};
  }
  RSTP_UNREACHABLE("unknown protocol kind");
}

}  // namespace

ProtocolInstance make_protocol(ProtocolKind kind, const ProtocolConfig& config) {
  // Every constructor (and block_planner_for) validates the config itself.
  RSTP_CHECK(config.planner == nullptr || kind == ProtocolKind::Beta ||
                 kind == ProtocolKind::Gamma,
             "the estimator supports only beta and gamma");
  ProtocolInstance instance = build_pair(kind, config);
  instance.input_bits = config.input.size();
  instance.kind = kind;
  return instance;
}

}  // namespace rstp::protocols
