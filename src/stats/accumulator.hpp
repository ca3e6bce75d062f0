// Streaming statistics used by the experiment harness.
//
// Accumulator implements Welford's online algorithm, which is numerically
// stable for long Monte-Carlo runs; RatioCounter carries a success
// probability with its Wilson interval.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>

#include "sim/snapshot.hpp"

namespace btsc::stats {

/// Online mean / variance / extrema of a stream of doubles.
class Accumulator {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  bool empty() const { return n_ == 0; }
  /// Mean of the samples; 0 if empty.
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean.
  double sem() const;
  /// Half-width of the 95% confidence interval (normal approximation).
  double ci95_half_width() const { return 1.959963985 * sem(); }
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return n_ > 0 ? mean_ * static_cast<double>(n_) : 0.0; }

  /// Merges another accumulator (parallel reduction), preserving exact
  /// mean/variance as if all samples were added to one accumulator.
  void merge(const Accumulator& other);

  // ---- checkpointing ----
  void save_state(sim::SnapshotWriter& w) const { io(*this, w); }
  void restore_state(sim::SnapshotReader& r) { io(*this, r); }

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    a.io(s.n_, s.mean_, s.m2_, s.min_, s.max_);
  }

  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Ratio counter for success probabilities with a Wilson 95% interval,
/// appropriate for the small sample counts of the failure-probability
/// experiment (Fig. 8).
class RatioCounter {
 public:
  void add(bool success) {
    ++n_;
    if (success) ++k_;
  }
  std::size_t trials() const { return n_; }
  std::size_t successes() const { return k_; }

  /// Merges another counter (parallel reduction); order-independent.
  void merge(const RatioCounter& other) {
    n_ += other.n_;
    k_ += other.k_;
  }

  double ratio() const {
    return n_ > 0 ? static_cast<double>(k_) / static_cast<double>(n_) : 0.0;
  }
  /// Wilson score interval [lo, hi] at 95% confidence.
  std::pair<double, double> wilson95() const;

  // ---- checkpointing ----
  void save_state(sim::SnapshotWriter& w) const { io(*this, w); }
  void restore_state(sim::SnapshotReader& r) { io(*this, r); }

 private:
  template <class Self, class Ar>
  static void io(Self& s, Ar& a) {
    a.io(s.n_, s.k_);
  }

  std::size_t n_ = 0;
  std::size_t k_ = 0;
};

}  // namespace btsc::stats
