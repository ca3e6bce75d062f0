#include "phy/logic4.hpp"

#include <gtest/gtest.h>

#include <array>

namespace btsc::phy {
namespace {

TEST(Logic4Test, FromToBit) {
  EXPECT_EQ(from_bit(true), Logic4::kOne);
  EXPECT_EQ(from_bit(false), Logic4::kZero);
}

TEST(Logic4Test, IsDefined) {
  EXPECT_TRUE(is_defined(Logic4::kZero));
  EXPECT_TRUE(is_defined(Logic4::kOne));
  EXPECT_FALSE(is_defined(Logic4::kZ));
  EXPECT_FALSE(is_defined(Logic4::kX));
}

TEST(Logic4Test, ResolveZIsIdentity) {
  for (Logic4 v : {Logic4::kZero, Logic4::kOne, Logic4::kZ, Logic4::kX}) {
    EXPECT_EQ(resolve(Logic4::kZ, v), v);
    EXPECT_EQ(resolve(v, Logic4::kZ), v);
  }
}

TEST(Logic4Test, ResolveAgreementKeepsValue) {
  EXPECT_EQ(resolve(Logic4::kZero, Logic4::kZero), Logic4::kZero);
  EXPECT_EQ(resolve(Logic4::kOne, Logic4::kOne), Logic4::kOne);
}

TEST(Logic4Test, ResolveConflictIsX) {
  EXPECT_EQ(resolve(Logic4::kZero, Logic4::kOne), Logic4::kX);
  EXPECT_EQ(resolve(Logic4::kOne, Logic4::kZero), Logic4::kX);
  EXPECT_EQ(resolve(Logic4::kX, Logic4::kZero), Logic4::kX);
  EXPECT_EQ(resolve(Logic4::kOne, Logic4::kX), Logic4::kX);
  EXPECT_EQ(resolve(Logic4::kX, Logic4::kX), Logic4::kX);
}

TEST(Logic4Test, ResolveIsCommutative) {
  constexpr std::array<Logic4, 4> all = {Logic4::kZero, Logic4::kOne,
                                         Logic4::kZ, Logic4::kX};
  for (Logic4 a : all) {
    for (Logic4 b : all) {
      EXPECT_EQ(resolve(a, b), resolve(b, a));
    }
  }
}

TEST(Logic4Test, ResolveIsAssociative) {
  constexpr std::array<Logic4, 4> all = {Logic4::kZero, Logic4::kOne,
                                         Logic4::kZ, Logic4::kX};
  for (Logic4 a : all) {
    for (Logic4 b : all) {
      for (Logic4 c : all) {
        EXPECT_EQ(resolve(resolve(a, b), c), resolve(a, resolve(b, c)));
      }
    }
  }
}

TEST(Logic4Test, InvertFlipsDefinedOnly) {
  EXPECT_EQ(invert(Logic4::kZero), Logic4::kOne);
  EXPECT_EQ(invert(Logic4::kOne), Logic4::kZero);
  EXPECT_EQ(invert(Logic4::kZ), Logic4::kZ);
  EXPECT_EQ(invert(Logic4::kX), Logic4::kX);
}

TEST(Logic4Test, ToChar) {
  EXPECT_EQ(to_char(Logic4::kZero), '0');
  EXPECT_EQ(to_char(Logic4::kOne), '1');
  EXPECT_EQ(to_char(Logic4::kZ), 'z');
  EXPECT_EQ(to_char(Logic4::kX), 'x');
}

TEST(Logic4Test, TraceEncoderScalar) {
  using Enc = btsc::sim::TraceEncoder<Logic4>;
  EXPECT_EQ(Enc::width(), 1u);
  EXPECT_EQ(Enc::encode(Logic4::kZ), "z");
  EXPECT_EQ(Enc::encode(Logic4::kX), "x");
  EXPECT_EQ(Enc::encode(Logic4::kOne), "1");
}

}  // namespace
}  // namespace btsc::phy
