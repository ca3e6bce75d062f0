#include "sim/bitvector.hpp"

#include <gtest/gtest.h>

#include "support/bits.hpp"

namespace btsc::sim {
namespace {

TEST(BitVectorTest, DefaultEmpty) {
  BitVector v;
  EXPECT_EQ(v.size(), 0u);
}

TEST(BitVectorTest, SizedConstruction) {
  BitVector v(5, true);
  EXPECT_EQ(v.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_TRUE(v[i]);
  // Whole-word equality: the unused tail bits must be zero.
  EXPECT_EQ(v, test::bits("11111"));
  BitVector pushed;
  for (int i = 0; i < 70; ++i) pushed.push_back(true);
  EXPECT_EQ(BitVector(70, true), pushed);
}

TEST(BitVectorTest, FromStringRoundTrip) {
  const auto v = test::bits("10110");
  EXPECT_EQ(v.size(), 5u);
  EXPECT_TRUE(v[0]);
  EXPECT_FALSE(v[1]);
  EXPECT_EQ(test::to_string(v), "10110");
}

TEST(BitVectorTest, FromStringRejectsBadChars) {
  EXPECT_THROW(test::bits("10x"), std::invalid_argument);
}

TEST(BitVectorTest, AppendUintIsLsbFirst) {
  BitVector v;
  v.append_uint(0b1101, 4);  // air order: 1,0,1,1
  EXPECT_EQ(test::to_string(v), "1011");
}

TEST(BitVectorTest, ExtractUintInverseOfAppend) {
  BitVector v;
  v.append_uint(0xCAFE, 16);
  v.append_uint(0x5, 3);
  EXPECT_EQ(test::extract_uint(v, 0, 16), 0xCAFEu);
  EXPECT_EQ(test::extract_uint(v, 16, 3), 0x5u);
}

TEST(BitVectorTest, ExtractOutOfRangeThrows) {
  BitVector v;
  v.append_uint(0xFF, 8);
  EXPECT_THROW(test::extract_uint(v, 1, 8), std::out_of_range);
  EXPECT_THROW(test::extract_uint(v, 0, 65), std::out_of_range);
}

TEST(BitVectorTest, SetFlipAt) {
  BitVector v(3);
  test::set_bit(v, 1, true);
  EXPECT_FALSE(v[0]);
  EXPECT_TRUE(v[1]);
  test::flip_bit(v, 1);
  EXPECT_FALSE(v[1]);
  EXPECT_THROW(test::set_bit(v, 3, true), std::out_of_range);
}

TEST(BitVectorTest, AppendVector) {
  auto a = test::bits("101");
  a.append(test::bits("01"));
  EXPECT_EQ(test::to_string(a), "10101");
}

TEST(BitVectorTest, Slice) {
  const auto v = test::bits("110010");
  EXPECT_EQ(test::to_string(test::slice(v, 2, 3)), "001");
  EXPECT_THROW(test::slice(v, 4, 3), std::out_of_range);
}

TEST(BitVectorTest, Equality) {
  EXPECT_EQ(test::bits("01"), test::bits("01"));
  EXPECT_NE(test::bits("01"), test::bits("10"));
  EXPECT_NE(test::bits("01"), test::bits("010"));
}

// Property sweep: append/extract round-trips for many widths and values.
class BitVectorRoundTrip : public ::testing::TestWithParam<unsigned> {};

TEST_P(BitVectorRoundTrip, AppendExtractIdentity) {
  const unsigned nbits = GetParam();
  const std::uint64_t mask =
      nbits == 64 ? ~0ull : ((1ull << nbits) - 1);
  for (std::uint64_t seed : {0ull, 1ull, 0xDEADBEEFCAFEBABEull,
                             0x123456789ABCDEFull, ~0ull}) {
    const std::uint64_t value = seed & mask;
    BitVector v;
    v.append_uint(0x2A, 6);  // preceding noise bits
    v.append_uint(value, nbits);
    EXPECT_EQ(test::extract_uint(v, 6, nbits), value) << "nbits=" << nbits;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVectorRoundTrip,
                         ::testing::Values(1u, 3u, 8u, 16u, 24u, 28u, 32u,
                                           48u, 64u));

}  // namespace
}  // namespace btsc::sim
