#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace btsc::sim {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), first[i]);
}

TEST(RngTest, UniformStaysInRange) {
  Rng r(3);
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RngTest, UniformSingletonRange) {
  Rng r(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform(5, 5), 5u);
}

TEST(RngTest, UniformCoversRange) {
  Rng r(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, Uniform01Bounds) {
  Rng r(6);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, Uniform01MeanNearHalf) {
  Rng r(8);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng r(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-1.0));
    EXPECT_TRUE(r.bernoulli(2.0));
  }
}

TEST(RngTest, BernoulliRateMatchesP) {
  Rng r(10);
  const double p = 1.0 / 30.0;  // a BER value used in the paper
  int hits = 0;
  const int n = 300000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(p);
  const double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, p, 3.0 * std::sqrt(p * (1 - p) / n));
}

// Property sweep: uniform() respects arbitrary [lo, hi] windows.
class RngUniformRange
    : public ::testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>> {
};

TEST_P(RngUniformRange, AllValuesWithinAndEndpointsReachable) {
  const auto [lo, hi] = GetParam();
  Rng r(lo * 31 + hi);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 20000; ++i) {
    const auto v = r.uniform(lo, hi);
    ASSERT_GE(v, lo);
    ASSERT_LE(v, hi);
    saw_lo |= (v == lo);
    saw_hi |= (v == hi);
  }
  if (hi - lo < 1000) {
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RngUniformRange,
    ::testing::Values(std::pair<std::uint64_t, std::uint64_t>{0, 1},
                      std::pair<std::uint64_t, std::uint64_t>{0, 78},
                      std::pair<std::uint64_t, std::uint64_t>{0, 1023},
                      std::pair<std::uint64_t, std::uint64_t>{5, 5},
                      std::pair<std::uint64_t, std::uint64_t>{100, 107},
                      std::pair<std::uint64_t, std::uint64_t>{
                          0, ~std::uint64_t{0}}));

}  // namespace
}  // namespace btsc::sim
