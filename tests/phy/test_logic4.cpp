#include "phy/logic4.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "phy/channel.hpp"
#include "sim/environment.hpp"
#include "support/recording_tracer.hpp"

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
  // A traced channel's bus line shows the wire resolved over every port
  // as one VCD scalar: z while idle, the driven bit, x on a conflict.
  sim::Environment env;
  sim::RecordingTracer tracer(env);
  env.set_tracer(&tracer);
  NoisyChannel ch(env, "ch");
  const PortId a = ch.attach("a");
  const PortId b = ch.attach("b");
  ch.drive(a, 5, Logic4::kOne);
  ch.drive(b, 9, Logic4::kZero);
  ch.drive(b, 9, Logic4::kZ);
  ch.drive(a, 5, Logic4::kZ);
  std::string bus;
  for (const auto& r : tracer.records()) {
    if (r.name == "ch.bus") bus.push_back(r.value);
  }
  EXPECT_EQ(bus, "z1x1z");
  env.set_tracer(nullptr);
}

}  // namespace
}  // namespace btsc::phy
