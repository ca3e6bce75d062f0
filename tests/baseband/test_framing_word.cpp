// Differential tests for the word-packed framing stack: every batched
// 64-bit path (whitening keystream, table CRC/HEC, popcount-syndrome
// FEC 2/3, correlator word shifts, BitVector word ops) is checked
// against an independently coded bit-at-a-time reference.
#include <gtest/gtest.h>

#include <cstdint>

#include "baseband/access_code.hpp"
#include "baseband/crc.hpp"
#include "baseband/fec.hpp"
#include "baseband/hec.hpp"
#include "baseband/whitening.hpp"
#include "sim/bitvector.hpp"
#include "sim/rng.hpp"
#include "support/bits.hpp"

namespace btsc::baseband {
namespace {

using sim::BitVector;
using sim::Rng;

BitVector random_bits(Rng& rng, std::size_t n) {
  BitVector v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back(rng.bernoulli(0.5));
  return v;
}

// ---- whitening ----

/// Bit-at-a-time reference scrambler (the pre-word-path definition).
void whiten_reference(std::uint8_t init7, BitVector& bits) {
  Whitener w(init7);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (w.next()) test::flip_bit(bits, i);
  }
}

TEST(FramingWordTest, WhitenerWordApplyMatchesBitReference) {
  Rng rng(42);
  for (std::size_t len : {0u, 1u, 10u, 54u, 63u, 64u, 65u, 240u, 2745u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const auto init =
          static_cast<std::uint8_t>(rng.uniform(0, 127));
      BitVector a = random_bits(rng, len);
      BitVector b = a;
      Whitener w(init);
      w.apply(a);
      whiten_reference(init, b);
      ASSERT_EQ(a, b) << "len=" << len << " init=" << int(init);
    }
  }
}

TEST(FramingWordTest, WhitenerKeystreamAdvancesLikeNext) {
  for (unsigned init = 0; init < 128; ++init) {
    for (unsigned nbits : {1u, 10u, 18u, 63u, 64u}) {
      Whitener a(static_cast<std::uint8_t>(init));
      Whitener b(static_cast<std::uint8_t>(init));
      const std::uint64_t ks = a.keystream(nbits);
      for (unsigned i = 0; i < nbits; ++i) {
        ASSERT_EQ((ks >> i) & 1u, b.next() ? 1u : 0u)
            << "init=" << init << " nbits=" << nbits << " i=" << i;
      }
      ASSERT_EQ(a.state(), b.state());
    }
  }
}

TEST(FramingWordTest, WhitenerKeystreamExhaustiveAgainstNext) {
  // Every register state and every length: the O(1) register read-back
  // (and the two-lookup path for n > 57) must land on the state n single
  // steps reach, with the same output bits.
  for (unsigned init = 0; init < 128; ++init) {
    for (unsigned nbits = 0; nbits <= 64; ++nbits) {
      Whitener a(static_cast<std::uint8_t>(init));
      Whitener b(static_cast<std::uint8_t>(init));
      const std::uint64_t ks = a.keystream(nbits);
      std::uint64_t ref = 0;
      for (unsigned i = 0; i < nbits; ++i) {
        ref |= static_cast<std::uint64_t>(b.next()) << i;
      }
      ASSERT_EQ(ks, ref) << "init=" << init << " nbits=" << nbits;
      ASSERT_EQ(a.state(), b.state()) << "init=" << init << " nbits=" << nbits;
    }
  }
}

TEST(FramingWordTest, WhiteningIsAnInvolution) {
  Rng rng(7);
  for (int trial = 0; trial < 8; ++trial) {
    const auto init = static_cast<std::uint8_t>(0x40 | rng.uniform(0, 63));
    const BitVector original = random_bits(rng, 100 + 17 * trial);
    BitVector scrambled = original;
    Whitener(init).apply(scrambled);
    if (original.size() > 0) {
      EXPECT_NE(scrambled, original);
    }
    Whitener(init).apply(scrambled);  // same seed descrambles
    EXPECT_EQ(scrambled, original);
  }
}

// ---- CRC-16 ----

/// Bit-at-a-time reference register (g(D) = D^16 + D^12 + D^5 + 1).
std::uint16_t crc_reference(const BitVector& bits, std::uint8_t uap) {
  auto reg = static_cast<std::uint16_t>(uap << 8);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const bool fb = ((reg >> 15) & 1u) != static_cast<std::uint16_t>(bits[i]);
    reg = static_cast<std::uint16_t>(reg << 1);
    if (fb) reg ^= 0x1021;
  }
  return reg;
}

TEST(FramingWordTest, Crc16TableMatchesBitReference) {
  Rng rng(99);
  for (std::size_t len : {0u, 1u, 7u, 8u, 9u, 16u, 80u, 136u, 2712u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto uap = static_cast<std::uint8_t>(rng.uniform(0, 255));
      const BitVector bits = random_bits(rng, len);
      ASSERT_EQ(crc16_compute(bits, uap), crc_reference(bits, uap))
          << "len=" << len;
    }
  }
}

TEST(FramingWordTest, Crc16ByteOverloadMatchesBitPath) {
  Rng rng(123);
  for (int trial = 0; trial < 8; ++trial) {
    const auto uap = static_cast<std::uint8_t>(rng.uniform(0, 255));
    std::vector<std::uint8_t> bytes;
    BitVector bits;
    const std::size_t n = rng.uniform(0, 64);
    for (std::size_t i = 0; i < n; ++i) {
      const auto b = static_cast<std::uint8_t>(rng.uniform(0, 255));
      bytes.push_back(b);
      bits.append_uint(b, 8);  // bytes fly LSB first
    }
    ASSERT_EQ(crc16_compute(bytes, uap), crc_reference(bits, uap));
  }
}

// ---- HEC ----

/// Bit-at-a-time reference register (g(D) = D^8+D^7+D^5+D^2+D+1).
std::uint8_t hec_reference(const BitVector& bits, std::uint8_t init) {
  std::uint8_t reg = init;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    const bool fb = ((reg >> 7) & 1u) != static_cast<std::uint8_t>(bits[i]);
    reg = static_cast<std::uint8_t>(reg << 1);
    if (fb) reg ^= 0xA7;
  }
  return reg;
}

TEST(FramingWordTest, HecTableMatchesBitReference) {
  Rng rng(1001);
  for (std::size_t len : {0u, 1u, 8u, 10u, 13u, 24u, 100u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const auto init = static_cast<std::uint8_t>(rng.uniform(0, 255));
      const BitVector bits = random_bits(rng, len);
      ASSERT_EQ(hec_compute(bits, init), hec_reference(bits, init))
          << "len=" << len;
    }
  }
}

TEST(FramingWordTest, Hec10MatchesGenericPath) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const auto header10 = static_cast<std::uint16_t>(rng.uniform(0, 1023));
    const auto init = static_cast<std::uint8_t>(rng.uniform(0, 255));
    BitVector bits;
    bits.append_uint(header10, 10);
    ASSERT_EQ(hec_compute10(header10, init), hec_compute(bits, init));
  }
}

// ---- FEC 2/3 ----

TEST(FramingWordTest, Fec23ExhaustiveSingleBitCorrectionPerBlock) {
  // Every 15-bit single-error pattern of every information word must
  // come back corrected; a sampled subset keeps all 1024 data values
  // covered with all 15 error positions.
  for (unsigned data = 0; data < 1024; ++data) {
    BitVector in;
    in.append_uint(data, 10);
    const BitVector coded = fec23_encode(in);
    ASSERT_EQ(coded.size(), kFec23BlockBits);
    for (std::size_t err = 0; err < kFec23BlockBits; ++err) {
      BitVector damaged = coded;
      test::flip_bit(damaged, err);
      const Fec23Result out = fec23_decode(damaged);
      ASSERT_FALSE(out.failed) << "data=" << data << " err=" << err;
      ASSERT_EQ(out.corrected_blocks, 1u);
      ASSERT_EQ(test::extract_uint(out.data, 0, 10), data);
    }
    // And the clean block decodes untouched.
    const Fec23Result clean = fec23_decode(coded);
    ASSERT_FALSE(clean.failed);
    ASSERT_EQ(clean.corrected_blocks, 0u);
    ASSERT_EQ(test::extract_uint(clean.data, 0, 10), data);
  }
}

TEST(FramingWordTest, Fec23BlockHelperAgreesWithVectorDecoder) {
  Rng rng(314);
  for (int trial = 0; trial < 500; ++trial) {
    const auto air =
        static_cast<std::uint16_t>(rng.uniform(0, (1u << 15) - 1));
    BitVector bits;
    bits.append_uint(air, 15);
    const Fec23Result ref = fec23_decode(bits);
    const Fec23Block block = fec23_decode_block15(air);
    ASSERT_EQ(block.failed, ref.failed);
    ASSERT_EQ(block.corrected ? 1u : 0u, ref.corrected_blocks);
    ASSERT_EQ(block.data10, test::extract_uint(ref.data, 0, 10));
  }
}

// ---- correlator ----

TEST(FramingWordTest, CorrelatorHammingThresholdBoundary) {
  const std::uint64_t sync = sync_bits(0x9E8B33);
  // 64 - threshold errors must still fire; one more must not.
  const int max_errors = 64 - kSyncCorrelationThreshold;
  for (int errors : {0, 1, max_errors, max_errors + 1}) {
    std::uint64_t noisy = sync;
    for (int e = 0; e < errors; ++e) noisy ^= 1ull << (e * 5);
    Correlator c(sync);
    bool fired = false;
    for (int i = 0; i < 64; ++i) fired = c.push((noisy >> i) & 1u);
    EXPECT_EQ(fired, errors <= max_errors) << "errors=" << errors;
  }
}

TEST(FramingWordTest, CorrelatorAdvanceMatchesPushOnQuietStreams) {
  const std::uint64_t sync = sync_bits(0x123456);
  Rng rng(2718);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t len = 1 + rng.uniform(0, 200);
    const BitVector stream = random_bits(rng, len);
    // Reference: push bit by bit, recording fire positions.
    Correlator ref(sync);
    bool any_fire = false;
    for (std::size_t i = 0; i < len; ++i) any_fire |= ref.push(stream[i]);
    if (any_fire) continue;  // advance() is only defined on quiet spans
    Correlator word(sync);
    std::size_t pos = 0;
    while (pos < len) {
      const auto chunk =
          static_cast<unsigned>(len - pos < 64 ? len - pos : 64);
      word.advance(stream.extract_word(pos, chunk), chunk);
      pos += chunk;
    }
    // Identical state (window and bits seen), and the next 64 pushes
    // fire identically.
    ASSERT_TRUE(word == ref);
    for (int i = 0; i < 64; ++i) {
      const bool b = rng.bernoulli(0.5);
      ASSERT_EQ(word.push(b), ref.push(b)) << "post-advance divergence";
    }
  }
}

// ---- BitVector word ops ----

TEST(FramingWordTest, BitVectorWordOpsMatchBitReference) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t len = rng.uniform(1, 400);
    const BitVector v = random_bits(rng, len);
    // extract_word == per-bit assembly at random positions.
    for (int k = 0; k < 16; ++k) {
      const std::size_t pos = rng.uniform(0, len - 1);
      const auto nbits = static_cast<unsigned>(
          rng.uniform(1, std::min<std::uint64_t>(64, len - pos)));
      std::uint64_t want = 0;
      for (unsigned i = 0; i < nbits; ++i) {
        want |= static_cast<std::uint64_t>(v[pos + i]) << i;
      }
      ASSERT_EQ(v.extract_word(pos, nbits), want);
    }
    // append_range == per-bit push_back.
    const std::size_t cut = rng.uniform(0, len);
    BitVector a;
    a.append_uint(0x5, 3);
    BitVector b = a;
    a.append_range(v, cut, len - cut);
    for (std::size_t i = cut; i < len; ++i) b.push_back(v[i]);
    ASSERT_EQ(a, b);
    // xor_word == per-bit flip.
    BitVector c = v;
    BitVector d = v;
    const std::size_t pos = rng.uniform(0, len - 1);
    const auto nbits = static_cast<unsigned>(
        rng.uniform(1, std::min<std::uint64_t>(64, len - pos)));
    const std::uint64_t mask = rng.next();
    c.xor_word(pos, mask, nbits);
    for (unsigned i = 0; i < nbits; ++i) {
      if ((mask >> i) & 1u) test::flip_bit(d, pos + i);
    }
    ASSERT_EQ(c, d);
  }
}

}  // namespace
}  // namespace btsc::baseband
