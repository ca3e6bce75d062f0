// Deterministic fault injection: schedule semantics (exact-count and
// sticky rules, per-op counters), the faultable_* wrapper behaviours,
// and — the point of the layer — that every injected disk failure under
// the journal and checkpoint store degrades cleanly: a typed error or a
// truncated tail, never a corrupt or shadowed artifact.
#include "io/fault.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <string>
#include <vector>

#include "runner/journal.hpp"
#include "sim/checkpoint_store.hpp"
#include "sim/snapshot.hpp"
#include "support/scoped_fault_plan.hpp"

namespace btsc::io {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

// An fd over a scratch file, cleaned up with the test.
struct ScratchFile {
  explicit ScratchFile(const std::string& name) : path(temp_path(name)) {
    fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    EXPECT_GE(fd, 0);
  }
  ~ScratchFile() {
    if (fd >= 0) ::close(fd);
    std::remove(path.c_str());
  }
  off_t size() const {
    struct stat st{};
    EXPECT_EQ(::fstat(fd, &st), 0);
    return st.st_size;
  }
  std::string path;
  int fd = -1;
};

TEST(FaultPlanTest, ExactRuleFiresOnlyAtItsCount) {
  FaultPlan plan({{FaultOp::kJournalWrite, 2, FaultKind::kEnospc, false}});
  EXPECT_EQ(plan.decide(FaultOp::kJournalWrite), FaultKind::kNone);
  EXPECT_EQ(plan.decide(FaultOp::kJournalWrite), FaultKind::kNone);
  EXPECT_EQ(plan.decide(FaultOp::kJournalWrite), FaultKind::kEnospc);
  EXPECT_EQ(plan.decide(FaultOp::kJournalWrite), FaultKind::kNone);
  EXPECT_EQ(plan.count(FaultOp::kJournalWrite), 4u);
}

TEST(FaultPlanTest, StickyRuleFiresFromItsCountOnward) {
  FaultPlan plan({{FaultOp::kCheckpointSync, 1, FaultKind::kSyncFail, true}});
  EXPECT_EQ(plan.decide(FaultOp::kCheckpointSync), FaultKind::kNone);
  EXPECT_EQ(plan.decide(FaultOp::kCheckpointSync), FaultKind::kSyncFail);
  EXPECT_EQ(plan.decide(FaultOp::kCheckpointSync), FaultKind::kSyncFail);
}

TEST(FaultPlanTest, CountersArePerOperation) {
  FaultPlan plan({{FaultOp::kJournalWrite, 0, FaultKind::kEnospc, true}});
  // Checkpoint traffic must not consume (or trip) journal-write rules.
  EXPECT_EQ(plan.decide(FaultOp::kCheckpointWrite), FaultKind::kNone);
  EXPECT_EQ(plan.decide(FaultOp::kCheckpointWrite), FaultKind::kNone);
  EXPECT_EQ(plan.decide(FaultOp::kJournalWrite), FaultKind::kEnospc);
  EXPECT_EQ(plan.count(FaultOp::kCheckpointWrite), 2u);
  EXPECT_EQ(plan.count(FaultOp::kJournalWrite), 1u);
}

TEST(FaultPlanTest, NoPlanInstalledMeansRawSyscalls) {
  ScratchFile f("fault-noplan");
  ASSERT_EQ(fault_plan(), nullptr);
  const char data[] = "hello";
  EXPECT_EQ(faultable_write(FaultOp::kJournalWrite, f.fd, data, 5), 5);
  EXPECT_EQ(faultable_fsync(FaultOp::kCheckpointSync, f.fd), 0);
  EXPECT_EQ(f.size(), 5);
}

TEST(FaultPlanTest, EnospcWriteFailsAndWritesNothing) {
  ScratchFile f("fault-enospc");
  ScopedFaultPlan sp({{FaultOp::kJournalWrite, 0, FaultKind::kEnospc, false}});
  const char data[] = "abcdef";
  errno = 0;
  EXPECT_EQ(faultable_write(FaultOp::kJournalWrite, f.fd, data, 6), -1);
  EXPECT_EQ(errno, ENOSPC);
  EXPECT_EQ(f.size(), 0);
  // The rule was exact: the next write goes through.
  EXPECT_EQ(faultable_write(FaultOp::kJournalWrite, f.fd, data, 6), 6);
  EXPECT_EQ(f.size(), 6);
}

TEST(FaultPlanTest, ShortWriteReallyWritesAPrefix) {
  ScratchFile f("fault-short");
  ScopedFaultPlan sp(
      {{FaultOp::kJournalWrite, 0, FaultKind::kShortWrite, false}});
  const char data[] = "0123456789";
  EXPECT_EQ(faultable_write(FaultOp::kJournalWrite, f.fd, data, 10), 5);
  EXPECT_EQ(f.size(), 5);  // the prefix is really on disk — a torn block
}

TEST(FaultPlanTest, SyncFailReturnsEIO) {
  ScratchFile f("fault-sync");
  ScopedFaultPlan sp({{FaultOp::kJournalSync, 0, FaultKind::kSyncFail, true}});
  errno = 0;
  EXPECT_EQ(faultable_fdatasync(FaultOp::kJournalSync, f.fd), -1);
  EXPECT_EQ(errno, EIO);
}

TEST(FaultPlanTest, CrashThrowsInjectedCrashNotStdException) {
  ScratchFile f("fault-crash");
  ScopedFaultPlan sp({{FaultOp::kCheckpointWrite, 0, FaultKind::kCrash, false}});
  // InjectedCrash must not be catchable as std::exception: a production
  // catch(const std::exception&) cleanup path would otherwise turn a
  // simulated power loss into a "handled" I/O error.
  bool caught_as_crash = false;
  try {
    faultable_write(FaultOp::kCheckpointWrite, f.fd, "x", 1);
  } catch (const std::exception&) {
    FAIL() << "InjectedCrash was caught as std::exception";
  } catch (const InjectedCrash& c) {
    caught_as_crash = true;
    EXPECT_EQ(c.op, FaultOp::kCheckpointWrite);
    EXPECT_EQ(c.at, 0u);
  }
  EXPECT_TRUE(caught_as_crash);
  EXPECT_EQ(f.size(), 0);
}

// ---------------------------------------------------------------------
// Journal under injected faults: a failed append must leave a valid,
// resumable journal holding exactly the durable records.
// ---------------------------------------------------------------------

runner::JournalConfig journal_config() {
  runner::JournalConfig c;
  c.scenario = "fig08";
  c.base_seed = 42;
  c.replications = 4;
  c.points = 2;
  c.quick = true;
  return c;
}

std::vector<std::uint8_t> sample_bytes(std::uint8_t tag) {
  return {tag, 0xAA, 0xBB};
}

TEST(FaultPlanJournalTest, EnospcAppendRollsBackToLastDurableRecord) {
  const std::string path = temp_path("fault-journal-enospc.journal");
  {
    runner::SweepJournal j(path, journal_config(), /*resume=*/false);
    j.append(0, 0, 1, sample_bytes(0x01));
    j.append(0, 1, 2, sample_bytes(0x02));
    {
      // Next journal write (this plan counts from its own install) hits
      // a full disk; the append must throw AND restore the file.
      ScopedFaultPlan sp(
          {{FaultOp::kJournalWrite, 0, FaultKind::kEnospc, false}});
      EXPECT_THROW(j.append(0, 2, 3, sample_bytes(0x03)),
                   runner::JournalError);
    }
    // The journal stays usable after the fault clears.
    j.append(0, 3, 4, sample_bytes(0x04));
  }
  runner::SweepJournal j(path, journal_config(), /*resume=*/true);
  EXPECT_EQ(j.completed_count(), 3u);
  ASSERT_NE(j.completed(0, 1), nullptr);
  EXPECT_EQ(j.completed(0, 1)->sample, sample_bytes(0x02));
  EXPECT_EQ(j.completed(0, 2), nullptr);  // the failed append left no trace
  ASSERT_NE(j.completed(0, 3), nullptr);
  EXPECT_EQ(j.completed(0, 3)->sample, sample_bytes(0x04));
  std::remove(path.c_str());
}

TEST(FaultPlanJournalTest, FailedFsyncDropsTheRecord) {
  const std::string path = temp_path("fault-journal-sync.journal");
  {
    runner::SweepJournal j(path, journal_config(), /*resume=*/false);
    j.append(0, 0, 1, sample_bytes(0x01));
    {
      ScopedFaultPlan sp(
          {{FaultOp::kJournalSync, 0, FaultKind::kSyncFail, false}});
      // The record hit the file but was never durable: append must throw
      // and truncate it away so "reported committed" == "on stable
      // storage".
      EXPECT_THROW(j.append(0, 1, 2, sample_bytes(0x02)),
                   runner::JournalError);
    }
    j.append(0, 2, 3, sample_bytes(0x03));
  }
  runner::SweepJournal j(path, journal_config(), /*resume=*/true);
  EXPECT_EQ(j.completed_count(), 2u);
  EXPECT_EQ(j.completed(0, 1), nullptr);
  ASSERT_NE(j.completed(0, 2), nullptr);
  std::remove(path.c_str());
}

TEST(FaultPlanJournalTest, TornAppendViaShortWriteCrashTruncatesOnResume) {
  const std::string path = temp_path("fault-journal-torn.journal");
  {
    runner::SweepJournal j(path, journal_config(), /*resume=*/false);
    j.append(0, 0, 1, sample_bytes(0x01));
    // Model a power loss mid-append: the block's first half lands, then
    // the retry write of the remainder "crashes". The process dies here
    // (we let the InjectedCrash unwind past the journal), leaving a torn
    // block physically on disk.
    ScopedFaultPlan sp({
        {FaultOp::kJournalWrite, 0, FaultKind::kShortWrite, false},
        {FaultOp::kJournalWrite, 1, FaultKind::kCrash, true},
    });
    bool crashed = false;
    try {
      j.append(0, 1, 2, sample_bytes(0x02));
    } catch (const InjectedCrash&) {
      crashed = true;
    }
    EXPECT_TRUE(crashed);
  }
  // Resume: the torn tail is severed, the first record survives, and the
  // journal accepts appends again.
  runner::SweepJournal j(path, journal_config(), /*resume=*/true);
  EXPECT_EQ(j.completed_count(), 1u);
  ASSERT_NE(j.completed(0, 0), nullptr);
  EXPECT_EQ(j.completed(0, 0)->sample, sample_bytes(0x01));
  EXPECT_EQ(j.completed(0, 1), nullptr);
  j.append(0, 1, 2, sample_bytes(0x02));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Checkpoint store under injected faults: a failed atomic write must
// never corrupt or shadow the previous valid checkpoint.
// ---------------------------------------------------------------------

sim::CheckpointFile checkpoint_fixture(std::uint64_t construction_seed) {
  sim::CheckpointFile f;
  f.scenario = "fig08";
  f.point_index = 1;
  f.warm_seed = 0x1111;
  f.construction_seed = construction_seed;
  f.config = {0x01, 0x02};
  sim::SnapshotWriter w;
  w.begin_section(sim::snapshot_tag("ENV "));
  w.u64(construction_seed);
  w.end_section();
  f.snapshot = w.take();
  return f;
}

TEST(FaultPlanCheckpointTest, EnospcWritePreservesPreviousCheckpoint) {
  const std::string path = temp_path("fault-ckpt-enospc.ckpt");
  write_checkpoint_file(path, checkpoint_fixture(100));
  {
    ScopedFaultPlan sp(
        {{FaultOp::kCheckpointWrite, 0, FaultKind::kEnospc, true}});
    EXPECT_THROW(write_checkpoint_file(path, checkpoint_fixture(200)),
                 sim::SnapshotError);
  }
  // The failed overwrite neither corrupted nor shadowed the old file.
  EXPECT_EQ(sim::load_checkpoint_file(path).construction_seed, 100u);
  std::remove(path.c_str());
}

TEST(FaultPlanCheckpointTest, FailedFsyncPreservesPreviousCheckpoint) {
  const std::string path = temp_path("fault-ckpt-sync.ckpt");
  write_checkpoint_file(path, checkpoint_fixture(100));
  {
    ScopedFaultPlan sp(
        {{FaultOp::kCheckpointSync, 0, FaultKind::kSyncFail, true}});
    EXPECT_THROW(write_checkpoint_file(path, checkpoint_fixture(200)),
                 sim::SnapshotError);
  }
  EXPECT_EQ(sim::load_checkpoint_file(path).construction_seed, 100u);
  std::remove(path.c_str());
}

TEST(FaultPlanCheckpointTest, CrashDuringWriteLeavesOldFileLoadable) {
  const std::string path = temp_path("fault-ckpt-crash.ckpt");
  write_checkpoint_file(path, checkpoint_fixture(100));
  {
    ScopedFaultPlan sp(
        {{FaultOp::kCheckpointWrite, 0, FaultKind::kCrash, false}});
    EXPECT_THROW(write_checkpoint_file(path, checkpoint_fixture(200)),
                 InjectedCrash);
  }
  // Power died while the TEMP file was being written: the target path
  // was never touched.
  EXPECT_EQ(sim::load_checkpoint_file(path).construction_seed, 100u);
  std::remove(path.c_str());
}

TEST(FaultPlanCheckpointTest, CrashAfterRenameLeavesNewFileValid) {
  const std::string path = temp_path("fault-ckpt-rename.ckpt");
  write_checkpoint_file(path, checkpoint_fixture(100));
  {
    ScopedFaultPlan sp(
        {{FaultOp::kCheckpointRename, 0, FaultKind::kCrash, false}});
    EXPECT_THROW(write_checkpoint_file(path, checkpoint_fixture(200)),
                 InjectedCrash);
  }
  // Crash-after-rename: the new file is in place (its directory entry
  // possibly unsynced) and must load as a complete, valid checkpoint —
  // the atomic protocol never exposes a torn intermediate.
  EXPECT_EQ(sim::load_checkpoint_file(path).construction_seed, 200u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace btsc::io
