// Supervised sweep execution: quarantine of throwing and hanging
// replications with full (point, replication, seed) context, bounded
// retry, journal/resume through SweepRunner, and the equivalence of a
// clean supervised run with the plain path.
#include "runner/sweep.hpp"

#include "runner/scenarios.hpp"
#include "service/job.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace btsc::runner {
namespace {

struct TestPoint {
  double value = 0.0;
};

struct TestSample {
  double sum = 0.0;
  std::uint64_t count = 0;

  void merge(const TestSample& o) {
    sum += o.sum;
    count += o.count;
  }
  void save_state(sim::SnapshotWriter& w) const {
    w.f64(sum);
    w.u64(count);
  }
  void restore_state(sim::SnapshotReader& r) {
    sum = r.f64();
    count = r.u64();
  }
};

std::vector<TestPoint> grid_points() {
  return {{1.0}, {10.0}, {100.0}};
}

/// The well-behaved reference body: sample = point value + replication
/// index, so every (point, replication) cell contributes a recognizable,
/// deterministic amount.
TestSample healthy_body(const TestPoint& p, const Replication& rep) {
  return {p.value + static_cast<double>(rep.replication_index), 1};
}

std::string temp_journal(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

TEST(SupervisionTest, UnsupervisedExceptionCarriesReplicationContext) {
  SweepOptions opt;
  opt.replications = 3;
  opt.base_seed = 77;
  SweepRunner<TestPoint, TestSample> runner(opt);
  const auto points = grid_points();
  const std::uint64_t bad_seed = sim::Rng::derive_stream_seed(77, 1, 2);
  try {
    runner.run(points, [&](const TestPoint& p, const Replication& rep) {
      if (rep.point_index == 1 && rep.replication_index == 2) {
        throw std::runtime_error("boom");
      }
      return healthy_body(p, rep);
    });
    FAIL() << "expected the wrapped body exception";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("point=1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("replication=2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("seed=" + std::to_string(bad_seed)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("boom"), std::string::npos) << msg;
  }
}

TEST(SupervisionTest, ThrowingReplicationIsQuarantinedOthersComplete) {
  SweepOptions opt;
  opt.replications = 4;
  opt.base_seed = 42;
  opt.threads = 2;
  opt.keep_going = true;
  SweepRunner<TestPoint, TestSample> runner(opt);
  const auto points = grid_points();

  SweepExecution ex;
  const auto merged = runner.run(
      points,
      [&](const TestPoint& p, const Replication& rep) {
        if (rep.point_index == 2 && rep.replication_index == 1) {
          throw std::runtime_error("boom");
        }
        return healthy_body(p, rep);
      },
      ex);

  ASSERT_EQ(ex.quarantined.size(), 1u);
  const QuarantineEntry& q = ex.quarantined[0];
  EXPECT_EQ(q.point_index, 2u);
  EXPECT_EQ(q.replication_index, 1u);
  EXPECT_EQ(q.seed, sim::Rng::derive_stream_seed(42, 2, 1));
  EXPECT_EQ(q.attempts, 1);
  EXPECT_FALSE(q.timed_out);
  EXPECT_NE(q.error.find("boom"), std::string::npos) << q.error;

  // Healthy points fold all four replications; the wounded point merges
  // the three survivors (replications 0, 2, 3).
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].count, 4u);
  EXPECT_DOUBLE_EQ(merged[0].sum, 4 * 1.0 + (0 + 1 + 2 + 3));
  EXPECT_EQ(merged[1].count, 4u);
  EXPECT_EQ(merged[2].count, 3u);
  EXPECT_DOUBLE_EQ(merged[2].sum, 3 * 100.0 + (0 + 2 + 3));
}

TEST(SupervisionTest, RetryRecoversTransientFailure) {
  SweepOptions opt;
  opt.replications = 2;
  opt.base_seed = 7;
  opt.max_retries = 2;
  opt.retry_backoff_ms = 0.1;
  SweepRunner<TestPoint, TestSample> runner(opt);
  const auto points = grid_points();

  std::atomic<int> flaky_attempts{0};
  SweepExecution ex;
  const auto merged = runner.run(
      points,
      [&](const TestPoint& p, const Replication& rep) {
        if (rep.point_index == 0 && rep.replication_index == 1) {
          if (flaky_attempts.fetch_add(1) < 2) {
            throw std::runtime_error("transient");
          }
        }
        return healthy_body(p, rep);
      },
      ex);

  EXPECT_EQ(flaky_attempts.load(), 3);  // two failures + one success
  EXPECT_TRUE(ex.quarantined.empty());
  ASSERT_EQ(merged.size(), 3u);
  for (const TestSample& s : merged) EXPECT_EQ(s.count, 2u);
}

TEST(SupervisionTest, RetriesExhaustedRecordsAttemptCount) {
  SweepOptions opt;
  opt.replications = 1;
  opt.max_retries = 2;
  opt.retry_backoff_ms = 0.1;
  SweepRunner<TestPoint, TestSample> runner(opt);

  SweepExecution ex;
  const auto merged = runner.run(
      grid_points(),
      [&](const TestPoint& p, const Replication& rep) {
        if (rep.point_index == 1) throw std::runtime_error("always");
        return healthy_body(p, rep);
      },
      ex);

  ASSERT_EQ(ex.quarantined.size(), 1u);
  EXPECT_EQ(ex.quarantined[0].attempts, 3);  // initial try + 2 retries
  EXPECT_FALSE(ex.quarantined[0].timed_out);
  // A fully-quarantined point degrades to a default sample.
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[1].count, 0u);
  EXPECT_EQ(merged[0].count, 1u);
  EXPECT_EQ(merged[2].count, 1u);
}

TEST(SupervisionTest, HangingReplicationIsQuarantinedAsTimeout) {
  SweepOptions opt;
  opt.replications = 2;
  opt.base_seed = 5;
  opt.threads = 2;
  opt.rep_timeout_s = 0.05;
  SweepRunner<TestPoint, TestSample> runner(opt);
  const auto points = grid_points();

  SweepExecution ex;
  const auto merged = runner.run(
      points,
      [&](const TestPoint& p, const Replication& rep) {
        if (rep.point_index == 1 && rep.replication_index == 0) {
          // Simulated hang; polls the supervisor's cancel flag so the
          // abandoned worker exits instead of leaking.
          while (!rep.cancelled()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return TestSample{-1.0, 1};  // discarded: commit is fenced
        }
        return healthy_body(p, rep);
      },
      ex);

  ASSERT_EQ(ex.quarantined.size(), 1u);
  const QuarantineEntry& q = ex.quarantined[0];
  EXPECT_EQ(q.point_index, 1u);
  EXPECT_EQ(q.replication_index, 0u);
  EXPECT_EQ(q.seed, sim::Rng::derive_stream_seed(5, 1, 0));
  EXPECT_TRUE(q.timed_out);
  EXPECT_NE(q.error.find("deadline"), std::string::npos) << q.error;

  // Every other replication completed, and the abandoned attempt's
  // late result never landed in the merge.
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].count, 2u);
  EXPECT_EQ(merged[1].count, 1u);
  EXPECT_DOUBLE_EQ(merged[1].sum, 10.0 + 1.0);  // replication 1 only
  EXPECT_EQ(merged[2].count, 2u);
}

TEST(SupervisionTest, CleanSupervisedRunMatchesPlainRun) {
  const auto points = grid_points();
  SweepOptions plain;
  plain.replications = 5;
  plain.base_seed = 99;
  plain.threads = 2;
  const auto want =
      SweepRunner<TestPoint, TestSample>(plain).run(points, healthy_body);

  SweepOptions sup = plain;
  sup.rep_timeout_s = 30.0;
  sup.max_retries = 2;
  sup.keep_going = true;
  SweepExecution ex;
  const auto got = SweepRunner<TestPoint, TestSample>(sup).run(
      points, healthy_body, ex);

  EXPECT_TRUE(ex.quarantined.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].sum, want[i].sum);
    EXPECT_EQ(got[i].count, want[i].count);
  }
}

TEST(SupervisionTest, JournalRoundTripSkipsCompletedReplications) {
  const std::string path = temp_journal("runner.journal");
  const auto points = grid_points();
  SweepOptions opt;
  opt.replications = 3;
  opt.base_seed = 11;

  JournalConfig cfg;
  cfg.scenario = "test";
  cfg.base_seed = opt.base_seed;
  cfg.replications = 3;
  cfg.points = static_cast<std::uint32_t>(points.size());

  std::vector<TestSample> want;
  {
    SweepJournal journal(path, cfg, /*resume=*/false);
    SweepExecution ex;
    ex.journal = &journal;
    want = SweepRunner<TestPoint, TestSample>(opt).run(points, healthy_body,
                                                       ex);
    EXPECT_EQ(ex.journal_skipped, 0u);
  }

  // Resume replays every sample from the journal: zero body executions,
  // identical merged results.
  SweepJournal journal(path, cfg, /*resume=*/true);
  EXPECT_EQ(journal.completed_count(), points.size() * 3);
  std::atomic<int> executed{0};
  SweepExecution ex;
  ex.journal = &journal;
  const auto got = SweepRunner<TestPoint, TestSample>(opt).run(
      points,
      [&](const TestPoint& p, const Replication& rep) {
        executed.fetch_add(1);
        return healthy_body(p, rep);
      },
      ex);
  EXPECT_EQ(executed.load(), 0);
  EXPECT_EQ(ex.journal_skipped, points.size() * 3);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].sum, want[i].sum);
    EXPECT_EQ(got[i].count, want[i].count);
  }
  std::remove(path.c_str());
}

TEST(SupervisionTest, JournalSeedMismatchThrows) {
  const std::string path = temp_journal("seed-mismatch.journal");
  const auto points = grid_points();
  SweepOptions opt;
  opt.replications = 2;
  opt.base_seed = 1;

  JournalConfig cfg;
  cfg.scenario = "test";
  cfg.base_seed = 1;
  cfg.replications = 2;
  cfg.points = static_cast<std::uint32_t>(points.size());
  {
    SweepJournal journal(path, cfg, false);
    SweepExecution ex;
    ex.journal = &journal;
    SweepRunner<TestPoint, TestSample>(opt).run(points, healthy_body, ex);
  }

  // Same journal, different seed derivation (common random numbers
  // flips the per-point stream index): the recorded seeds no longer
  // match what the runner derives, and replay must refuse.
  SweepOptions crn = opt;
  crn.common_random_numbers = true;
  SweepJournal journal(path, cfg, true);
  SweepExecution ex;
  ex.journal = &journal;
  SweepRunner<TestPoint, TestSample> runner(crn);
  EXPECT_THROW(runner.run(points, healthy_body, ex), JournalError);
  std::remove(path.c_str());
}

TEST(SupervisionTest, QuarantinedReplicationIsAbsentFromJournal) {
  const std::string path = temp_journal("quarantine.journal");
  const auto points = grid_points();
  SweepOptions opt;
  opt.replications = 2;
  opt.base_seed = 3;
  opt.keep_going = true;

  JournalConfig cfg;
  cfg.scenario = "test";
  cfg.base_seed = 3;
  cfg.replications = 2;
  cfg.points = static_cast<std::uint32_t>(points.size());
  {
    SweepJournal journal(path, cfg, false);
    SweepExecution ex;
    ex.journal = &journal;
    SweepRunner<TestPoint, TestSample>(opt).run(
        points,
        [&](const TestPoint& p, const Replication& rep) {
          if (rep.point_index == 0 && rep.replication_index == 0) {
            throw std::runtime_error("boom");
          }
          return healthy_body(p, rep);
        },
        ex);
    ASSERT_EQ(ex.quarantined.size(), 1u);
  }

  // The journal holds exactly the five completed replications; a resumed
  // run re-executes only the quarantined one.
  SweepJournal journal(path, cfg, true);
  EXPECT_EQ(journal.completed_count(), 5u);
  EXPECT_EQ(journal.completed(0, 0), nullptr);
  std::atomic<int> executed{0};
  SweepExecution ex;
  ex.journal = &journal;
  const auto merged = SweepRunner<TestPoint, TestSample>(opt).run(
      points,
      [&](const TestPoint& p, const Replication& rep) {
        executed.fetch_add(1);
        return healthy_body(p, rep);
      },
      ex);
  EXPECT_EQ(executed.load(), 1);
  EXPECT_TRUE(ex.quarantined.empty());
  ASSERT_EQ(merged.size(), 3u);
  for (const TestSample& s : merged) EXPECT_EQ(s.count, 2u);
  std::remove(path.c_str());
}

TEST(SupervisionTest, SupervisedDeterministicAcrossThreadCounts) {
  const auto points = grid_points();
  std::vector<std::vector<TestSample>> runs;
  for (int threads : {1, 2, 8}) {
    SweepOptions opt;
    opt.replications = 6;
    opt.base_seed = 123;
    opt.threads = threads;
    opt.keep_going = true;
    SweepExecution ex;
    runs.push_back(SweepRunner<TestPoint, TestSample>(opt).run(
        points, healthy_body, ex));
    EXPECT_TRUE(ex.quarantined.empty());
  }
  for (std::size_t t = 1; t < runs.size(); ++t) {
    ASSERT_EQ(runs[t].size(), runs[0].size());
    for (std::size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[t][i].sum, runs[0][i].sum);
      EXPECT_EQ(runs[t][i].count, runs[0][i].count);
    }
  }
}

TEST(QuarantineReport, ErrorTextRoundTripsThroughJson) {
  SweepResult result;
  result.id = "fig08";
  result.base_seed = 9;
  QuarantineEntry q;
  q.point_index = 2;
  q.replication_index = 5;
  q.seed = 77;
  q.error = "bad \"quote\" and \\ backslash\nsecond line\ttab\x01";
  result.quarantined.push_back(q);

  // One quarantined entry: the object inside "quarantined": [...] is
  // flat, so the service's JSON object parser reads it back.
  const std::string report = quarantine_report(result);
  const std::size_t open = report.find("[{");
  const std::size_t close = report.rfind("}]");
  ASSERT_NE(open, std::string::npos) << report;
  ASSERT_NE(close, std::string::npos) << report;
  const service::JsonObject entry =
      service::parse_json_object(report.substr(open + 1, close - open));
  EXPECT_EQ(entry.at("error").as_string("error"), q.error);
  EXPECT_EQ(entry.at("seed").as_u64("seed"), 77u);
}

}  // namespace
}  // namespace btsc::runner
