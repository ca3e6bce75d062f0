// SweepRunner: sharding, deterministic seed derivation, in-order merge,
// and error propagation.
#include "runner/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/rng.hpp"

namespace btsc::runner {
namespace {

/// Sample recording which (point, replication, seed) triples were folded,
/// in fold order.
struct TraceSample {
  std::vector<std::uint64_t> seeds;
  std::vector<std::size_t> reps;
  double sum = 0.0;

  void merge(const TraceSample& o) {
    seeds.insert(seeds.end(), o.seeds.begin(), o.seeds.end());
    reps.insert(reps.end(), o.reps.begin(), o.reps.end());
    sum += o.sum;
  }
};

TEST(SeedDerivationTest, PureFunctionOfInputs) {
  const auto a = sim::Rng::derive_stream_seed(42, 3, 7);
  const auto b = sim::Rng::derive_stream_seed(42, 3, 7);
  EXPECT_EQ(a, b);
}

TEST(SeedDerivationTest, DistinctAcrossPointsRepsAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {1ull, 2ull, 1000ull}) {
    for (std::uint64_t p = 0; p < 16; ++p) {
      for (std::uint64_t r = 0; r < 16; ++r) {
        seen.insert(sim::Rng::derive_stream_seed(base, p, r));
      }
    }
  }
  EXPECT_EQ(seen.size(), 3u * 16u * 16u);  // no collisions
}

TEST(SeedDerivationTest, NotSensitiveToArgumentSwapConfusion) {
  // (stream, index) must not commute, or point 3 / rep 5 would collide
  // with point 5 / rep 3.
  EXPECT_NE(sim::Rng::derive_stream_seed(1, 3, 5),
            sim::Rng::derive_stream_seed(1, 5, 3));
}

TEST(SweepRunnerTest, VisitsEveryPointAndReplicationOnce) {
  SweepOptions opt;
  opt.threads = 4;
  opt.replications = 5;
  opt.base_seed = 99;
  std::atomic<int> calls{0};
  const std::vector<int> points = {10, 20, 30};
  const auto merged = SweepRunner<int, TraceSample>(opt).run(
      points, [&](const int& p, const Replication& rep) {
        ++calls;
        TraceSample s;
        s.seeds.push_back(rep.seed);
        s.reps.push_back(rep.replication_index);
        s.sum = static_cast<double>(p);
        return s;
      });
  EXPECT_EQ(calls.load(), 15);
  ASSERT_EQ(merged.size(), 3u);
  for (std::size_t p = 0; p < merged.size(); ++p) {
    ASSERT_EQ(merged[p].reps.size(), 5u);
    // Folded strictly in replication order, whatever thread ran what.
    for (std::size_t r = 0; r < 5; ++r) {
      EXPECT_EQ(merged[p].reps[r], r);
      EXPECT_EQ(merged[p].seeds[r],
                sim::Rng::derive_stream_seed(99, p, r));
    }
    EXPECT_DOUBLE_EQ(merged[p].sum, 5.0 * points[p]);
  }
}

TEST(SweepRunnerTest, ResultIndependentOfThreadCount) {
  const std::vector<int> points = {1, 2, 3, 4, 5, 6, 7};
  auto body = [](const int& p, const Replication& rep) {
    // Deterministic pseudo-simulation: value depends only on (p, seed).
    sim::Rng rng(rep.seed);
    TraceSample s;
    s.seeds.push_back(rep.seed);
    s.reps.push_back(rep.replication_index);
    s.sum = static_cast<double>(p) * rng.uniform01();
    return s;
  };
  std::vector<std::vector<TraceSample>> results;
  for (int threads : {1, 2, 8}) {
    SweepOptions opt;
    opt.threads = threads;
    opt.replications = 4;
    opt.base_seed = 7;
    results.push_back(SweepRunner<int, TraceSample>(opt).run(points, body));
  }
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[v].size(), results[0].size());
    for (std::size_t p = 0; p < results[0].size(); ++p) {
      EXPECT_EQ(results[v][p].seeds, results[0][p].seeds);
      EXPECT_EQ(results[v][p].reps, results[0][p].reps);
      // Bitwise: identical fold order must give the identical double.
      EXPECT_EQ(results[v][p].sum, results[0][p].sum);
    }
  }
}

TEST(SweepRunnerTest, CommonRandomNumbersPairSeedsAcrossPoints) {
  SweepOptions opt;
  opt.threads = 2;
  opt.replications = 3;
  opt.base_seed = 55;
  opt.common_random_numbers = true;
  const auto merged = SweepRunner<int, TraceSample>(opt).run(
      {1, 2, 3}, [](const int&, const Replication& rep) {
        TraceSample s;
        s.seeds.push_back(rep.seed);
        s.reps.push_back(rep.replication_index);
        return s;
      });
  ASSERT_EQ(merged.size(), 3u);
  // Every point sees the identical replication seed sequence (the
  // common-random-numbers pairing), which still varies across reps.
  EXPECT_EQ(merged[1].seeds, merged[0].seeds);
  EXPECT_EQ(merged[2].seeds, merged[0].seeds);
  EXPECT_NE(merged[0].seeds[0], merged[0].seeds[1]);
}

TEST(SweepRunnerTest, EmptyPointListYieldsEmptyResult) {
  SweepOptions opt;
  opt.threads = 4;
  const auto merged = SweepRunner<int, TraceSample>(opt).run(
      {}, [](const int&, const Replication&) { return TraceSample{}; });
  EXPECT_TRUE(merged.empty());
}

TEST(SweepRunnerTest, RejectsZeroReplications) {
  SweepOptions opt;
  opt.replications = 0;
  EXPECT_THROW((SweepRunner<int, TraceSample>(opt)), std::invalid_argument);
}

TEST(SweepRunnerTest, PropagatesBodyExceptions) {
  for (int threads : {1, 3}) {
    SweepOptions opt;
    opt.threads = threads;
    opt.replications = 2;
    SweepRunner<int, TraceSample> runner(opt);
    EXPECT_THROW(
        runner.run({1, 2, 3},
                   [](const int& p, const Replication&) -> TraceSample {
                     if (p == 2) throw std::runtime_error("boom");
                     return {};
                   }),
        std::runtime_error);
  }
}

TEST(SweepRunnerTest, NonMergeableSampleWorksWithSingleReplication) {
  SweepOptions opt;
  opt.threads = 2;
  const auto merged = SweepRunner<int, double>(opt).run(
      {2, 4, 6},
      [](const int& p, const Replication&) { return p * 0.5; });
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_DOUBLE_EQ(merged[0], 1.0);
  EXPECT_DOUBLE_EQ(merged[2], 3.0);
}

TEST(SweepRunnerTest, NonMergeableSampleRejectsMultipleReplications) {
  SweepOptions opt;
  opt.replications = 2;
  SweepRunner<int, double> runner(opt);
  EXPECT_THROW(
      runner.run({1}, [](const int&, const Replication&) { return 0.0; }),
      std::logic_error);
}

/// Threads of this process, from its /proc task directory.
std::size_t live_threads() {
  namespace fs = std::filesystem;
  return static_cast<std::size_t>(std::distance(
      fs::directory_iterator("/proc/self/task"), fs::directory_iterator()));
}

/// The most threads a task body of a 2-task grid sees alive. Each body
/// samples until both tasks have started and 10 ms have passed, so a
/// pool still spawning surplus workers is caught.
template <class RunGrid>
std::size_t peak_threads_over_two_tasks(RunGrid run_grid) {
  std::atomic<int> started{0};
  std::atomic<std::size_t> peak{0};
  run_grid([&] {
    ++started;
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
    while (started.load() < 2 || std::chrono::steady_clock::now() < until) {
      std::size_t seen = peak.load();
      const std::size_t now = live_threads();
      while (now > seen && !peak.compare_exchange_weak(seen, now)) {
      }
      std::this_thread::yield();
    }
  });
  return peak.load();
}

// A request for more workers than tasks starts one worker per task: 16
// threads over 2 tasks run the plain grid on the caller and 1 worker,
// and the supervised grid on 2 workers while the caller watches.
TEST(SweepRunnerTest, PoolNeverOutgrowsTaskCount) {
  const std::size_t base = live_threads();
  EXPECT_EQ(peak_threads_over_two_tasks([](auto body) {
              detail::run_task_grid(2, 16, [&](std::size_t) { body(); });
            }),
            base + 1);
  EXPECT_EQ(peak_threads_over_two_tasks([](auto body) {
              detail::SupervisorConfig cfg;
              cfg.threads = 16;
              std::vector<detail::TaskFailure> failures;
              detail::run_supervised_grid(
                  2, cfg,
                  [&](std::size_t, detail::CommitToken&) { body(); },
                  failures);
              EXPECT_TRUE(failures.empty());
            }),
            base + 2);
}

TEST(ResolveThreadCountTest, PositivePassesThroughZeroMeansHardware) {
  EXPECT_EQ(resolve_thread_count(3), 3);
  EXPECT_GE(resolve_thread_count(0), 1);
  EXPECT_THROW(resolve_thread_count(-8), std::invalid_argument);
}

}  // namespace
}  // namespace btsc::runner
