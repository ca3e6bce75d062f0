// HEC-8 and CRC-16 properties: determinism, init dependence, error
// detection. Known-answer vectors are derived from the implementation's
// published polynomials (g_HEC = D^8+D^7+D^5+D^2+D+1, g_CRC = CCITT).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baseband/crc.hpp"
#include "baseband/hec.hpp"
#include "sim/bitvector.hpp"
#include "sim/rng.hpp"
#include "support/bits.hpp"

namespace btsc::baseband {
namespace {

using btsc::sim::BitVector;

TEST(HecTest, DeterministicAndInitDependent) {
  const auto bits = test::bits("1011000110");
  const auto h1 = hec_compute(bits, 0x47);
  EXPECT_EQ(h1, hec_compute(bits, 0x47));
  EXPECT_NE(h1, hec_compute(bits, 0x48));
}

TEST(HecTest, Packed10BitFormMatchesBitForm) {
  // header10 = 0b1100010110 -> air order LSB first.
  const std::uint16_t header10 = 0b1100010110;
  BitVector bits;
  bits.append_uint(header10, 10);
  EXPECT_EQ(hec_compute(bits, 0x5A), hec_compute10(header10, 0x5A));
}

TEST(HecTest, DetectsAllSingleBitErrors) {
  btsc::sim::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    BitVector bits;
    bits.append_uint(rng.next(), 10);
    const std::uint8_t init = static_cast<std::uint8_t>(rng.next());
    const std::uint8_t good = hec_compute(bits, init);
    for (std::size_t i = 0; i < bits.size(); ++i) {
      BitVector bad = bits;
      test::flip_bit(bad, i);
      EXPECT_NE(hec_compute(bad, init), good)
          << "single-bit error at " << i << " not detected";
    }
  }
}

TEST(HecTest, CheckAgreesWithCompute) {
  const auto bits = test::bits("0101010101");
  const auto h = hec_compute(bits, 0x11);
  EXPECT_TRUE(hec_check(bits, 0x11, h));
  EXPECT_FALSE(hec_check(bits, 0x11, h ^ 1u));
  EXPECT_FALSE(hec_check(bits, 0x12, h));
}

TEST(HecTest, EmptyInputYieldsInit) {
  EXPECT_EQ(hec_compute(BitVector(), 0x00), 0x00);
}

TEST(CrcTest, ByteAndBitFormsAgree) {
  const std::vector<std::uint8_t> bytes = {0xDE, 0xAD, 0xBE, 0xEF};
  BitVector bits;
  for (auto b : bytes) bits.append_uint(b, 8);
  EXPECT_EQ(crc16_compute(bytes, 0x35), crc16_compute(bits, 0x35));
}

TEST(CrcTest, UapChangesResult) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3};
  EXPECT_NE(crc16_compute(bytes, 0x00), crc16_compute(bytes, 0x01));
}

TEST(CrcTest, DetectsAllSingleAndDoubleBitErrorsInShortPayload) {
  btsc::sim::Rng rng(7);
  BitVector bits;
  bits.append_uint(rng.next(), 64);
  const std::uint16_t good = crc16_compute(bits, 0x42);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    BitVector bad = bits;
    test::flip_bit(bad, i);
    ASSERT_NE(crc16_compute(bad, 0x42), good) << "single error at " << i;
    for (std::size_t j = i + 1; j < bits.size(); j += 7) {
      BitVector bad2 = bad;
      test::flip_bit(bad2, j);
      ASSERT_NE(crc16_compute(bad2, 0x42), good)
          << "double error at " << i << "," << j;
    }
  }
}

TEST(CrcTest, DetectsBurstErrorsUpTo16Bits) {
  btsc::sim::Rng rng(9);
  BitVector bits;
  bits.append_uint(rng.next(), 64);
  bits.append_uint(rng.next(), 64);
  const std::uint16_t good = crc16_compute(bits, 0x00);
  for (std::size_t start = 0; start + 16 <= bits.size(); start += 5) {
    BitVector bad = bits;
    for (std::size_t i = 0; i < 16; ++i) test::flip_bit(bad, start + i);
    EXPECT_NE(crc16_compute(bad, 0x00), good)
        << "16-bit burst at " << start;
  }
}

TEST(CrcTest, SingleBitTableGivesTheChangeOfSparseErrors) {
  // crc(m ^ d) = crc(m) ^ XOR over d's set bits of the single-bit CRC of
  // the bits after it -- the sum a taken noisy packet checks.
  sim::Rng rng(911);
  for (int round = 0; round < 300; ++round) {
    const auto len = static_cast<std::size_t>(rng.uniform(1, 343));
    std::vector<std::uint8_t> m(len);
    for (auto& b : m) b = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> corrupted = m;
    std::uint16_t change = 0;
    const auto errors = rng.uniform(1, 12);
    for (std::uint64_t e = 0; e < errors; ++e) {
      const auto bit = static_cast<std::size_t>(rng.uniform(0, 8 * len - 1));
      corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      change ^= crc16_single_bit(8 * len - 1 - bit);
    }
    const auto uap = static_cast<std::uint8_t>(rng.next());
    EXPECT_EQ(crc16_compute(corrupted, uap),
              static_cast<std::uint16_t>(crc16_compute(m, uap) ^ change))
        << "round " << round;
  }
}

TEST(CrcTest, CheckHelper) {
  const std::vector<std::uint8_t> bytes = {0x10, 0x20};
  const auto crc = crc16_compute(bytes, 0x77);
  EXPECT_TRUE(crc16_check(bytes, 0x77, crc));
  EXPECT_FALSE(crc16_check(bytes, 0x77, static_cast<std::uint16_t>(crc + 1)));
}

// Property sweep: random payload/UAP pairs always verify, and a random
// corruption never does.
class CrcRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CrcRoundTrip, ComputeThenCheck) {
  btsc::sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<std::uint8_t> bytes(1 + rng.uniform(0, 338));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
  const auto uap = static_cast<std::uint8_t>(rng.next());
  const auto crc = crc16_compute(bytes, uap);
  EXPECT_TRUE(crc16_check(bytes, uap, crc));
  auto corrupted = bytes;
  corrupted[rng.uniform(0, corrupted.size() - 1)] ^=
      static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
  EXPECT_FALSE(crc16_check(corrupted, uap, crc));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrcRoundTrip, ::testing::Range(0, 24));

}  // namespace
}  // namespace btsc::baseband
