#include "stats/accumulator.hpp"

#include <algorithm>
#include <cmath>

namespace btsc::stats {

void Accumulator::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::sem() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

void Accumulator::merge(const Accumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

std::pair<double, double> RatioCounter::wilson95() const {
  if (n_ == 0) return {0.0, 1.0};
  constexpr double z = 1.959963985;
  const double n = static_cast<double>(n_);
  const double p = ratio();
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double centre = p + z2 / (2.0 * n);
  const double margin = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n));
  return {std::max(0.0, (centre - margin) / denom),
          std::min(1.0, (centre + margin) / denom)};
}

}  // namespace btsc::stats
