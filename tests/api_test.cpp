// Tests for the high-level Link API.
#include "rstp/api/link.h"

#include <gtest/gtest.h>

#include <cmath>

#include "rstp/common/check.h"
#include "rstp/common/rng.h"
#include "rstp/core/bounds.h"
#include "rstp/core/verify.h"

namespace rstp::api {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng{seed};
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  return bytes;
}

TEST(BitsBytes, RoundTrip) {
  const auto bytes = random_bytes(257, 1);
  EXPECT_EQ(bits_to_bytes(bytes_to_bits(bytes)), bytes);
}

TEST(BitsBytes, MsbFirstLayout) {
  const std::uint8_t one_byte[] = {0b10110001};
  const auto bits = bytes_to_bits(one_byte);
  const std::vector<ioa::Bit> expected = {1, 0, 1, 1, 0, 0, 0, 1};
  EXPECT_EQ(bits, expected);
}

TEST(BitsBytes, RejectsNonByteMultiple) {
  const std::vector<ioa::Bit> bits(7, 0);
  EXPECT_THROW((void)bits_to_bytes(bits), ContractViolation);
}

TEST(Link, TransfersBytesIntact) {
  LinkOptions options;
  options.params = core::TimingParams::make(1, 2, 8);
  options.k = 8;
  Link link{options};
  const auto payload = random_bytes(64, 2);
  const TransferResult result = link.transfer(payload);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.received, payload);
  EXPECT_EQ(result.stats.payload_bytes, 64u);
  EXPECT_EQ(result.stats.payload_bits, 512u);
  EXPECT_GT(result.stats.ticks_per_bit, 0.0);
  EXPECT_GT(result.stats.data_packets, 0u);
}

TEST(Link, EveryExplicitProtocolWorks) {
  const auto payload = random_bytes(16, 3);
  for (const auto p :
       {LinkProtocol::Alpha, LinkProtocol::Beta, LinkProtocol::Gamma, LinkProtocol::AltBit}) {
    LinkOptions options;
    options.params = core::TimingParams::make(1, 2, 6);
    options.k = 4;
    options.protocol = p;
    Link link{options};
    const TransferResult result = link.transfer(payload);
    EXPECT_TRUE(result.ok) << static_cast<int>(p);
    EXPECT_EQ(result.received, payload) << static_cast<int>(p);
  }
}

TEST(Link, AutoSelectionFollowsTheBounds) {
  // Tight timing → β; high uncertainty → γ (the E6 crossover).
  EXPECT_EQ(Link::recommend(core::TimingParams::make(1, 1, 16), 8),
            protocols::ProtocolKind::Beta);
  EXPECT_EQ(Link::recommend(core::TimingParams::make(1, 16, 16), 8),
            protocols::ProtocolKind::Gamma);
  LinkOptions tight;
  tight.params = core::TimingParams::make(1, 1, 16);
  EXPECT_EQ(Link{tight}.resolved_protocol(), protocols::ProtocolKind::Beta);
  LinkOptions loose;
  loose.params = core::TimingParams::make(1, 16, 16);
  EXPECT_EQ(Link{loose}.resolved_protocol(), protocols::ProtocolKind::Gamma);
}

TEST(Link, VerifyOptionRunsTheTraceChecker) {
  LinkOptions options;
  options.params = core::TimingParams::make(1, 2, 6);
  options.k = 4;
  options.verify = true;
  Link link{options};
  const TransferResult result = link.transfer(random_bytes(8, 4));
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.stats.verified);
}

TEST(Link, EmptyPayload) {
  Link link{LinkOptions{}};
  const TransferResult result = link.transfer({});
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(result.received.empty());
  EXPECT_EQ(result.stats.data_packets, 0u);
  EXPECT_DOUBLE_EQ(result.stats.ticks_per_bit, 0.0);
}

TEST(Link, AcksOnlyForActiveProtocols) {
  const auto payload = random_bytes(8, 5);
  LinkOptions options;
  options.params = core::TimingParams::make(1, 2, 6);
  options.k = 4;
  options.protocol = LinkProtocol::Beta;
  EXPECT_EQ(Link{options}.transfer(payload).stats.ack_packets, 0u);
  options.protocol = LinkProtocol::Gamma;
  EXPECT_GT(Link{options}.transfer(payload).stats.ack_packets, 0u);
}

TEST(Link, EffortWithinBoundsForLargePayload) {
  LinkOptions options;
  options.params = core::TimingParams::make(1, 2, 16);
  options.k = 16;
  options.protocol = LinkProtocol::Beta;
  Link link{options};
  const TransferResult result = link.transfer(random_bytes(1024, 6));
  ASSERT_TRUE(result.ok);
  const core::BoundsReport bounds = core::compute_bounds(options.params, options.k);
  // Byte payloads are generally not block-aligned: allow the padding factor.
  const double blocks = std::ceil(static_cast<double>(result.stats.payload_bits) /
                                  static_cast<double>(bounds.beta_bits_per_block));
  const double padding_factor =
      blocks * static_cast<double>(bounds.beta_bits_per_block) /
      static_cast<double>(result.stats.payload_bits);
  EXPECT_LE(result.stats.ticks_per_bit, bounds.beta_upper * padding_factor * (1 + 1e-9));
}

TEST(Link, RandomizedEnvironmentsStayCorrect) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    LinkOptions options;
    options.params = core::TimingParams::make(2, 3, 9);
    options.k = 8;
    options.environment = core::Environment::randomized(seed);
    options.verify = true;
    Link link{options};
    const TransferResult result = link.transfer(random_bytes(32, seed));
    EXPECT_TRUE(result.ok) << "seed " << seed;
    EXPECT_TRUE(result.stats.verified) << "seed " << seed;
  }
}

/// Link::transfer's result computed by hand: the run with its trace
/// recorded, then verify_trace on that trace.
TransferResult transfer_by_recording(const Link& link, const LinkOptions& options,
                                     std::span<const std::uint8_t> payload) {
  protocols::ProtocolConfig cfg;
  cfg.params = options.params;
  cfg.k = options.k;
  cfg.input = bytes_to_bits(payload);
  const core::ProtocolRun run = core::run_protocol(link.resolved_protocol(), cfg,
                                                   options.environment, /*record_trace=*/true,
                                                   options.max_events);
  TransferResult r;
  r.stats.protocol_used = link.resolved_protocol();
  r.stats.payload_bytes = payload.size();
  r.stats.payload_bits = cfg.input.size();
  r.stats.last_send = run.result.last_transmitter_send;
  r.stats.completion = run.result.end_time;
  r.stats.ticks_per_bit = core::effort_of(run, cfg.input.size()).effort;
  r.stats.data_packets = run.result.transmitter_sends;
  r.stats.ack_packets = run.result.receiver_sends;
  r.stats.events = run.result.event_count;
  r.stats.verified = core::verify_trace(run.result.trace, options.params, cfg.input).ok();
  const bool delivered = run.output_correct && run.result.quiescent;
  if (delivered) r.received = bits_to_bytes(run.result.output);
  r.ok = delivered && r.stats.verified;
  return r;
}

void expect_same_transfer(const TransferResult& got, const TransferResult& want) {
  EXPECT_EQ(got.received, want.received);
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.stats.protocol_used, want.stats.protocol_used);
  EXPECT_EQ(got.stats.payload_bytes, want.stats.payload_bytes);
  EXPECT_EQ(got.stats.payload_bits, want.stats.payload_bits);
  EXPECT_EQ(got.stats.last_send, want.stats.last_send);
  EXPECT_EQ(got.stats.completion, want.stats.completion);
  EXPECT_EQ(got.stats.ticks_per_bit, want.stats.ticks_per_bit);
  EXPECT_EQ(got.stats.data_packets, want.stats.data_packets);
  EXPECT_EQ(got.stats.ack_packets, want.stats.ack_packets);
  EXPECT_EQ(got.stats.events, want.stats.events);
  EXPECT_EQ(got.stats.verified, want.stats.verified);
}

TEST(Link, OnlineVerifyEqualsRecordingTheTrace) {
  // Link verifies without recording the trace; the result must be the one
  // recording it and running verify_trace gives, field for field.
  const auto payload = random_bytes(24, 7);
  for (const auto p : {LinkProtocol::Auto, LinkProtocol::Alpha, LinkProtocol::Beta,
                       LinkProtocol::Gamma, LinkProtocol::AltBit}) {
    for (const core::Environment& env :
         {core::Environment::worst_case(), core::Environment::randomized(3)}) {
      LinkOptions options;
      options.params = core::TimingParams::make(1, 2, 6);
      options.k = 4;
      options.protocol = p;
      options.environment = env;
      options.verify = true;
      const Link link{options};
      SCOPED_TRACE(::testing::Message() << "protocol " << static_cast<int>(p) << ", env seed "
                                        << env.seed);
      const TransferResult online = link.transfer(payload);
      EXPECT_TRUE(online.ok);
      EXPECT_TRUE(online.stats.verified);
      expect_same_transfer(online, transfer_by_recording(link, options, payload));
    }
  }
}

TEST(Link, VerifyRejectsATransferCutShortByTheEventCap) {
  LinkOptions options;
  options.params = core::TimingParams::make(1, 2, 6);
  options.k = 4;
  options.verify = true;
  options.max_events = 1;
  const Link link{options};
  const auto payload = random_bytes(8, 8);
  const TransferResult result = link.transfer(payload);
  EXPECT_FALSE(result.stats.verified);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.stats.events, 1u);
  expect_same_transfer(result, transfer_by_recording(link, options, payload));
}

TEST(Link, InvalidOptionsRejected) {
  LinkOptions options;
  options.k = 1;
  EXPECT_THROW(Link{options}, ContractViolation);
  LinkOptions bad_params;
  bad_params.params = core::TimingParams{Duration{3}, Duration{2}, Duration{5}};
  EXPECT_THROW(Link{bad_params}, ContractViolation);
}

}  // namespace
}  // namespace rstp::api
