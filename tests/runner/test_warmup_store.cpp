// WarmupStore: durable warm-up cache hit/miss/spill accounting and the
// degradation contract — per-file problems miss (warn per file), a
// store-level spill failure disables further spills after ONE warning
// while loads keep serving hits (a read-only directory is still a
// cache).
#include "runner/warmup_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "io/fault.hpp"
#include "sim/checkpoint_store.hpp"
#include "sim/snapshot.hpp"
#include "support/scoped_fault_plan.hpp"

namespace btsc::runner {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  // Unique per process: ctest runs each TEST() as its own process, in
  // parallel, and they must not clobber each other's directories.
  TempDir()
      : path(testing::TempDir() + "warmup-store-test-" +
             std::to_string(::getpid())) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

SystemImage sample_image(std::uint64_t construction_seed) {
  // A realistic image: a complete, checksummed snapshot stream (anything
  // else would be rejected on load as corruption, which is its own
  // test).
  sim::SnapshotWriter w;
  w.begin_section(sim::snapshot_tag("ENV "));
  w.u64(construction_seed);
  w.end_section();
  return SystemImage{w.take(), construction_seed};
}

const std::vector<std::uint8_t> kConfig = {0x10, 0x20, 0x30};

TEST(WarmupStoreTest, SaveThenLoadRoundTripCountsSpillAndHit) {
  TempDir dir;
  reset_warmup_store_stats();
  WarmupStore store(dir.path, "fig08");
  store.save(2, 0xABCD, kConfig, sample_image(777));
  const auto img = store.try_load(2, 0xABCD, kConfig);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->construction_seed, 777u);
  EXPECT_EQ(img->bytes, sample_image(777).bytes);
  const auto s = warmup_store_stats();
  EXPECT_EQ(s.spills, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.spill_failures, 0u);
}

TEST(WarmupStoreTest, MissingFileIsAMiss) {
  TempDir dir;
  reset_warmup_store_stats();
  WarmupStore store(dir.path, "fig08");
  EXPECT_FALSE(store.try_load(0, 0x1, kConfig).has_value());
  EXPECT_EQ(warmup_store_stats().misses, 1u);
}

TEST(WarmupStoreTest, RecipeMismatchIsAMissNotAWrongRestore) {
  TempDir dir;
  reset_warmup_store_stats();
  WarmupStore store(dir.path, "fig08");
  store.save(0, 0x1, kConfig, sample_image(1));
  // Same point and seed, different construction parameters: the cached
  // image belongs to another sweep definition and must not restore.
  const std::vector<std::uint8_t> other_config = {0x99};
  EXPECT_FALSE(store.try_load(0, 0x1, other_config).has_value());
  EXPECT_EQ(warmup_store_stats().misses, 1u);
  // The original recipe still hits — the mismatch did not evict it.
  EXPECT_TRUE(store.try_load(0, 0x1, kConfig).has_value());
}

TEST(WarmupStoreTest, CorruptFileIsAMiss) {
  TempDir dir;
  reset_warmup_store_stats();
  WarmupStore store(dir.path, "fig08");
  store.save(0, 0x1, kConfig, sample_image(1));
  // Flip a byte in the stored checkpoint: the checksum must reject it
  // and the store must degrade to a miss, not a wrong restore.
  std::string victim;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    victim = e.path().string();
  }
  ASSERT_FALSE(victim.empty());
  {
    std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);
    char b = 0;
    f.read(&b, 1);
    f.seekp(24);
    b = static_cast<char>(b ^ 0xFF);
    f.write(&b, 1);
  }
  EXPECT_FALSE(store.try_load(0, 0x1, kConfig).has_value());
  EXPECT_EQ(warmup_store_stats().misses, 1u);
}

TEST(WarmupStoreTest, SpillFailureDisablesStoreAfterOneFailure) {
  TempDir dir;
  reset_warmup_store_stats();
  WarmupStore store(dir.path, "fig08");
  // A disk that is full from now on (sticky ENOSPC on checkpoint
  // writes): the first save fails and disables the store; later saves
  // return without even attempting I/O — one warning for the whole run,
  // not one per point.
  io::ScopedFaultPlan sp(
      {{io::FaultOp::kCheckpointWrite, 0, io::FaultKind::kEnospc, true}});
  EXPECT_FALSE(store.disabled());
  store.save(0, 0x1, kConfig, sample_image(1));
  EXPECT_TRUE(store.disabled());
  store.save(1, 0x2, kConfig, sample_image(2));
  store.save(2, 0x3, kConfig, sample_image(3));
  const auto s = warmup_store_stats();
  EXPECT_EQ(s.spills, 0u);
  EXPECT_EQ(s.spill_failures, 1u);  // the short-circuited saves don't count
  // Nothing was spilled, and — critically — nothing corrupt was left
  // behind to shadow a future valid spill.
  std::size_t files = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir.path)) {
    ++files;
  }
  EXPECT_EQ(files, 0u);
}

TEST(WarmupStoreTest, LoadsStillServeHitsAfterSpillDisable) {
  TempDir dir;
  reset_warmup_store_stats();
  WarmupStore store(dir.path, "fig08");
  store.save(0, 0x1, kConfig, sample_image(41));
  {
    // The directory "fills up": spills die, but the read side of a
    // full (or read-only) cache still works, so warm-ups already paid
    // for keep being served.
    io::ScopedFaultPlan sp(
        {{io::FaultOp::kCheckpointWrite, 0, io::FaultKind::kEnospc, true}});
    store.save(1, 0x2, kConfig, sample_image(42));
    EXPECT_TRUE(store.disabled());
    const auto img = store.try_load(0, 0x1, kConfig);
    ASSERT_TRUE(img.has_value());
    EXPECT_EQ(img->construction_seed, 41u);
  }
  const auto s = warmup_store_stats();
  EXPECT_EQ(s.spills, 1u);
  EXPECT_EQ(s.spill_failures, 1u);
  EXPECT_EQ(s.hits, 1u);
}

TEST(WarmupStoreTest, FailedSpillNeverShadowsAValidCheckpoint) {
  TempDir dir;
  reset_warmup_store_stats();
  WarmupStore store(dir.path, "fig08");
  store.save(0, 0x1, kConfig, sample_image(100));
  {
    // Overwrite attempt dies mid-write: the previous valid checkpoint
    // must survive untouched (atomic temp+rename protocol).
    io::ScopedFaultPlan sp(
        {{io::FaultOp::kCheckpointWrite, 0, io::FaultKind::kEnospc, true}});
    store.save(0, 0x1, kConfig, sample_image(200));
  }
  const auto img = store.try_load(0, 0x1, kConfig);
  ASSERT_TRUE(img.has_value());
  EXPECT_EQ(img->construction_seed, 100u);
}

}  // namespace
}  // namespace btsc::runner
