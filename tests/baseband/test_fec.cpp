#include "baseband/fec.hpp"

#include <gtest/gtest.h>

#include "sim/bitvector.hpp"
#include "sim/rng.hpp"
#include "support/bits.hpp"

namespace btsc::baseband {
namespace {

using btsc::sim::BitVector;

TEST(Fec13Test, EncodeTriplesEveryBit) {
  const auto coded = fec13_encode(test::bits("101"));
  EXPECT_EQ(test::to_string(coded), "111000111");
}

TEST(Fec13Test, DecodeIsInverseOfEncode) {
  btsc::sim::Rng rng(1);
  BitVector data;
  data.append_uint(rng.next(), 18);  // header-sized
  EXPECT_EQ(fec13_decode(fec13_encode(data)), data);
}

TEST(Fec13Test, CorrectsOneErrorPerTriple) {
  BitVector data = test::bits("100110");
  BitVector coded = fec13_encode(data);
  // Flip one bit in every triple.
  for (std::size_t t = 0; t < data.size(); ++t) {
    test::flip_bit(coded, 3 * t + t % 3);
  }
  EXPECT_EQ(fec13_decode(coded), data);
}

TEST(Fec13Test, TwoErrorsInTripleDecodeWrong) {
  BitVector coded = fec13_encode(test::bits("1"));
  test::flip_bit(coded, 0);
  test::flip_bit(coded, 1);
  EXPECT_EQ(test::to_string(fec13_decode(coded)), "0");
}

TEST(Fec13Test, RejectsBadLength) {
  EXPECT_THROW(fec13_decode(BitVector(4)), std::invalid_argument);
}

TEST(Fec23Test, BlockGeometry) {
  BitVector data;
  data.append_uint(0x3FF, 10);
  const auto coded = fec23_encode(data);
  EXPECT_EQ(coded.size(), 15u);
  // 160-bit DM1 body -> 16 blocks -> 240 bits.
  BitVector dm1(160);
  EXPECT_EQ(fec23_encode(dm1).size(), 240u);
}

TEST(Fec23Test, SystematicDataFirst) {
  BitVector data;
  data.append_uint(0b1011001110, 10);
  const auto coded = fec23_encode(data);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(coded[i], data[i]);
}

TEST(Fec23Test, CleanDecodeRoundTrip) {
  btsc::sim::Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    BitVector data;
    data.append_uint(rng.next(), 40);  // 4 blocks
    const auto result = fec23_decode(fec23_encode(data));
    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.corrected_blocks, 0u);
    EXPECT_EQ(result.data, data);
  }
}

TEST(Fec23Test, ZeroPadsPartialBlock) {
  BitVector data;
  data.append_uint(0x7, 3);  // 3 bits -> one padded block
  const auto coded = fec23_encode(data);
  EXPECT_EQ(coded.size(), 15u);
  const auto result = fec23_decode(coded);
  EXPECT_EQ(test::extract_uint(result.data, 0, 3), 0x7u);
  EXPECT_EQ(test::extract_uint(result.data, 3, 7), 0u);
}

// Every single-bit error in every position of a block must be corrected.
class Fec23SingleError : public ::testing::TestWithParam<int> {};

TEST_P(Fec23SingleError, CorrectsAnySinglePosition) {
  const int err_pos = GetParam();
  btsc::sim::Rng rng(static_cast<std::uint64_t>(err_pos) + 99);
  for (int trial = 0; trial < 20; ++trial) {
    BitVector data;
    data.append_uint(rng.next(), 10);
    auto coded = fec23_encode(data);
    test::flip_bit(coded, static_cast<std::size_t>(err_pos));
    const auto result = fec23_decode(coded);
    EXPECT_FALSE(result.failed);
    EXPECT_EQ(result.corrected_blocks, 1u);
    EXPECT_EQ(result.data, data)
        << "error at " << err_pos << " not corrected";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPositions, Fec23SingleError,
                         ::testing::Range(0, 15));

TEST(Fec23Test, ErrorsInDistinctBlocksBothCorrected) {
  btsc::sim::Rng rng(5);
  BitVector data;
  data.append_uint(rng.next(), 30);  // 3 blocks
  auto coded = fec23_encode(data);
  test::flip_bit(coded, 2);    // block 0
  test::flip_bit(coded, 20);   // block 1
  test::flip_bit(coded, 44);   // block 2
  const auto result = fec23_decode(coded);
  EXPECT_FALSE(result.failed);
  EXPECT_EQ(result.corrected_blocks, 3u);
  EXPECT_EQ(result.data, data);
}

TEST(Fec23Test, DoubleErrorInBlockIsNotSilentlyAccepted) {
  // A double error either reports failure or mis-corrects; it must never
  // report a clean (corrected_blocks == 0, !failed) decode.
  btsc::sim::Rng rng(6);
  int failures = 0, miscorrections = 0;
  for (int trial = 0; trial < 200; ++trial) {
    BitVector data;
    data.append_uint(rng.next(), 10);
    auto coded = fec23_encode(data);
    const auto i = rng.uniform(0, 14);
    auto j = rng.uniform(0, 14);
    while (j == i) j = rng.uniform(0, 14);
    test::flip_bit(coded, i);
    test::flip_bit(coded, j);
    const auto result = fec23_decode(coded);
    if (result.failed) {
      ++failures;
    } else {
      EXPECT_NE(result.data, data)
          << "double error decoded as clean original";
      ++miscorrections;
    }
  }
  EXPECT_GT(failures + miscorrections, 0);
}

TEST(Fec23Test, EncodeBlockMatchesVectorForm) {
  const std::uint16_t data10 = 0b0110101100;
  BitVector data;
  data.append_uint(data10, 10);
  const auto coded = fec23_encode(data);
  const std::uint16_t block = fec23_encode_block(data10);
  // Data part: air bit i == data bit i.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(coded[static_cast<std::size_t>(i)], (data10 >> i) & 1u);
  }
  // Parity part present and consistent with the block encoder.
  EXPECT_EQ(block >> 5, data10);
  EXPECT_EQ(coded.size(), 15u);
}

TEST(Fec23Test, RejectsBadLength) {
  EXPECT_THROW(fec23_decode(BitVector(14)), std::invalid_argument);
}

TEST(Fec23Test, MinimumDistanceAtLeastFour) {
  // (15,10) expurgated Hamming via (D+1)(D^4+D+1) has d_min = 4: no two
  // codewords closer than 4. Sample pairs to validate.
  btsc::sim::Rng rng(8);
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = static_cast<std::uint16_t>(rng.uniform(0, 1023));
    auto b = static_cast<std::uint16_t>(rng.uniform(0, 1023));
    if (a == b) continue;
    const std::uint16_t ca = fec23_encode_block(a);
    const std::uint16_t cb = fec23_encode_block(b);
    int dist = 0;
    for (int i = 0; i < 15; ++i) dist += ((ca ^ cb) >> i) & 1;
    EXPECT_GE(dist, 4) << "codewords for " << a << " and " << b;
  }
}

}  // namespace
}  // namespace btsc::baseband
