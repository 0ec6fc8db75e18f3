#include "rstp/combinatorics/block_coder.h"

#include "rstp/common/check.h"

namespace rstp::combinatorics {

using bigint::BigUint;

BlockCoder::BlockCoder(std::uint32_t k, std::uint32_t delta)
    : codec_(k, delta), bits_per_block_(0) {
  RSTP_CHECK_GE(k, 2u, "block coder needs an alphabet of at least two symbols");
  RSTP_CHECK_GE(delta, 1u, "block coder needs at least one packet per block");
  const BigUint& mu = codec_.count();
  // μ ≥ 2, read off the bit length: a BigUint{2} to compare with would be
  // one heap allocation per coder.
  RSTP_CHECK(mu.bit_length() >= 2, "mu_k(delta) must be at least 2 to carry data");
  bits_per_block_ = mu.bit_length() - 1;  // ⌊log2 μ_k(δ)⌋
}

std::vector<Symbol> BlockCoder::encode(std::span<const Bit> bits) const {
  RSTP_CHECK_EQ(bits.size(), bits_per_block_, "encode expects exactly one block of bits");
  // value < 2^B <= μ_k(δ), so unrank is defined.
  std::vector<Symbol> block(packets_per_block());
  codec_.unrank_sorted(bits_to_biguint(bits), block);
  return block;
}

std::vector<Bit> BlockCoder::decode(const Multiset& block) const {
  RSTP_CHECK_EQ(block.universe(), alphabet(), "block universe mismatch");
  RSTP_CHECK_EQ(block.size(), packets_per_block(), "decode expects a full block");
  const BigUint value = codec_.rank(block);
  if (value.bit_length() > bits_per_block_) {
    throw ModelError(
        "BlockCoder::decode: received multiset is not a valid codeword; "
        "the channel model (no corruption, no cross-block mixing) was violated");
  }
  return biguint_to_bits(value, bits_per_block_);
}

std::vector<Bit> BlockCoder::decode(std::span<const Symbol> symbols) const {
  return decode(Multiset::from_symbols(alphabet(), symbols));
}

std::vector<Symbol> BlockCoder::encode_message(std::span<const Bit> message) const {
  const std::size_t blocks = blocks_for(message.size());
  std::vector<Symbol> out;
  out.reserve(blocks * packets_per_block());
  std::vector<Bit> chunk(bits_per_block_, 0);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t begin = b * bits_per_block_;
    for (std::size_t i = 0; i < bits_per_block_; ++i) {
      const std::size_t idx = begin + i;
      chunk[i] = idx < message.size() ? message[idx] : Bit{0};
    }
    const std::vector<Symbol> encoded = encode(chunk);
    out.insert(out.end(), encoded.begin(), encoded.end());
  }
  return out;
}

std::size_t BlockCoder::padding_for(std::size_t message_bits) const {
  const std::size_t rem = message_bits % bits_per_block_;
  return rem == 0 ? 0 : bits_per_block_ - rem;
}

std::size_t BlockCoder::blocks_for(std::size_t message_bits) const {
  return (message_bits + bits_per_block_ - 1) / bits_per_block_;
}

}  // namespace rstp::combinatorics
