#include "sim/time.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace btsc::sim {
namespace {

using namespace btsc::sim::literals;

TEST(SimTimeTest, NamedConstructorsConvertUnits) {
  EXPECT_EQ(SimTime::ns(1).as_ns(), 1u);
  EXPECT_EQ(SimTime::us(1).as_ns(), 1000u);
  EXPECT_EQ(SimTime::ms(1).as_ns(), 1'000'000u);
  EXPECT_EQ(SimTime::sec(1).as_ns(), 1'000'000'000u);
}

TEST(SimTimeTest, DefaultIsZero) {
  EXPECT_EQ(SimTime{}.as_ns(), 0u);
  EXPECT_EQ(SimTime{}, SimTime::zero());
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime::ns(1), SimTime::ns(2));
  EXPECT_LE(SimTime::us(1), SimTime::ns(1000));
  EXPECT_GT(SimTime::ms(1), SimTime::us(999));
  EXPECT_EQ(SimTime::sec(2), SimTime::ms(2000));
}

TEST(SimTimeTest, Arithmetic) {
  EXPECT_EQ(SimTime::us(1) + SimTime::us(2), SimTime::us(3));
  EXPECT_EQ(SimTime::ms(1) - SimTime::us(1), SimTime::us(999));
  EXPECT_EQ(SimTime::us(625) * 4, SimTime::us(2500));
  EXPECT_EQ(SimTime::ms(1) / SimTime::us(625), 1u);
  EXPECT_EQ(SimTime::us(2500) / SimTime::us(625), 4u);
  EXPECT_EQ(SimTime::us(1300) % SimTime::us(625), SimTime::us(50));
}

TEST(SimTimeTest, CompoundAssignment) {
  SimTime t = SimTime::us(10);
  t += SimTime::us(5);
  EXPECT_EQ(t, SimTime::us(15));
  EXPECT_EQ(t - SimTime::us(15), SimTime::zero());
}

TEST(SimTimeTest, FloatingConversions) {
  EXPECT_DOUBLE_EQ(SimTime::ms(480).as_sec(), 0.48);
}

TEST(SimTimeTest, Literals) {
  EXPECT_EQ(625_us, SimTime::us(625));
  EXPECT_EQ(1_sec, SimTime::sec(1));
  EXPECT_EQ(3_ns, SimTime::ns(3));
  EXPECT_EQ(2_ms, SimTime::ms(2));
}

TEST(SimTimeTest, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::sec(2).to_string(), "2 s");
  EXPECT_EQ(SimTime::ms(3).to_string(), "3 ms");
  EXPECT_EQ(SimTime::us(625).to_string(), "625 us");
  EXPECT_EQ(SimTime::ns(7).to_string(), "7 ns");
}

TEST(SimTimeTest, StreamOperator) {
  std::ostringstream os;
  os << SimTime::us(625);
  EXPECT_EQ(os.str(), "625 us");
}

TEST(SimTimeTest, MaxIsSentinel) {
  EXPECT_GT(SimTime::max(), SimTime::sec(1'000'000));
}

}  // namespace
}  // namespace btsc::sim
