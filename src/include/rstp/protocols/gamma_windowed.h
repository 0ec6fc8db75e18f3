// A^γw(k, W) — windowed (pipelined) gamma: an engineered extension.
//
// The paper's A^γ is stop-and-wait at block granularity: after δ2 packets it
// idles until all δ2 acks return, so every block pays the full ~3d round
// trip. This variant keeps up to W blocks in flight by tagging each packet
// with its block index mod W:
//
//   payload = symbol + (k/W)·tag,  tag = block_index mod W
//
// The receiver separates concurrent blocks by tag (each tag class has at
// most one outstanding block, because the transmitter starts block b+W only
// once block b is fully acked — and acks imply receipt), decodes each tag's
// multiset when complete, and writes blocks in order. Acks carry the
// packet's tag so the transmitter can attribute them.
//
// The trade: the per-block round trip amortizes over W blocks — for W large
// enough the pipeline hides it entirely and effort approaches the streaming
// limit δ2·c2/B' — but symbols come from an alphabet of k/W, so each block
// carries only B' = ⌊log2 μ_{k/W}(δ2)⌋ bits. Windowing wins iff W·B' > B;
// E16 locates the crossovers in both k and W. This is exactly the kind of
// protocol the paper's framework prices: pipelining is purchased with
// alphabet. W = 1 degenerates to plain γ's rhythm; the default is W = 2.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rstp/combinatorics/block_coder.h"
#include "rstp/core/bounds.h"
#include "rstp/protocols/base.h"

namespace rstp::protocols {

/// W when config.window_override is unset: k must then be even and >= 4.
inline constexpr std::uint32_t kDefaultWindow = 2;

/// Worst-case effort bound for A^γw(k, W): W blocks complete per
/// max(W·δ2·c2, δ2·c2 + 2d + 2c2) window (send-limited vs round-trip-
/// limited), each carrying ⌊log2 μ_{k/W}(δ2)⌋ bits. Requires W >= 1,
/// W | k, and k/W >= 2.
[[nodiscard]] double windowed_gamma_upper(const core::TimingParams& params, std::uint32_t k,
                                          std::uint32_t window = kDefaultWindow);

class WindowedGammaTransmitter final
    : public Process<WindowedGammaTransmitter, TransmitterBase> {
 public:
  /// Requires W | k and k/W >= 2 (W from config.window_override, default 2).
  explicit WindowedGammaTransmitter(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_t^gammaw"; }
  [[nodiscard]] bool transmission_complete() const override;
  [[nodiscard]] std::string snapshot() const override;

  [[nodiscard]] std::int64_t block_size() const { return delta2_; }
  [[nodiscard]] std::size_t bits_per_block() const { return coder_->bits_per_block(); }
  [[nodiscard]] const std::vector<combinatorics::Symbol>& symbol_stream() const { return stream_; }

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void take(const ioa::Action& action);
  void receive(const ioa::Packet& packet);

  /// The tag class of the block currently awaiting acks at the head of the
  /// window (block index `completed_`).
  [[nodiscard]] std::size_t head_tag() const { return completed_ % window_; }

  std::shared_ptr<const combinatorics::BlockCoder> coder_;  // over k/W symbols
  std::vector<combinatorics::Symbol> stream_;               // untagged symbols
  std::uint32_t symbols_ = 2;   // k/W
  std::uint32_t window_ = 2;    // W
  std::int64_t delta2_ = 0;
  std::size_t i_ = 0;           // next symbol index
  std::int64_t c_ = 0;          // packets sent in the current block
  std::size_t block_ = 0;       // index of the block being sent
  std::size_t completed_ = 0;   // fully-acked blocks (prefix of the block order)
  std::vector<std::int64_t> acks_;  // acks per tag for outstanding blocks
};

class WindowedGammaReceiver final : public Process<WindowedGammaReceiver, ReceiverBase> {
 public:
  explicit WindowedGammaReceiver(const ProtocolConfig& config);

  [[nodiscard]] std::string_view name() const override { return "A_r^gammaw"; }
  [[nodiscard]] bool quiescent() const override;
  [[nodiscard]] std::string snapshot() const override;

  [[nodiscard]] std::size_t decoded_bits() const { return decoded_.size(); }

 private:
  friend Process;
  [[nodiscard]] bool local_action(ioa::Action& out) const;
  void take(const ioa::Action& action);
  void receive(const ioa::Packet& packet);

  void decode_ready_blocks();

  std::shared_ptr<const combinatorics::BlockCoder> coder_;
  std::uint32_t symbols_ = 2;  // k/W
  std::uint32_t window_ = 2;   // W
  std::vector<combinatorics::Multiset> blocks_;  // per-tag accumulation
  std::size_t next_tag_ = 0;                     // blocks decode in order
  std::vector<std::uint32_t> ack_queue_;         // tags to acknowledge
  std::vector<ioa::Bit> decoded_;
  std::size_t target_length_ = 0;
};

}  // namespace rstp::protocols
