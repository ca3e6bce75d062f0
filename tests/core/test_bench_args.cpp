#include "core/report.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

#include "runner/scenarios.hpp"

namespace btsc::core {
namespace {

BenchArgs parse(std::initializer_list<const char*> argv) {
  std::array<char*, 16> raw{};
  int argc = 0;
  raw[argc++] = const_cast<char*>("bench");
  for (const char* a : argv) raw[argc++] = const_cast<char*>(a);
  return BenchArgs::parse(argc, raw.data());
}

TEST(BenchArgsTest, DefaultsWithNoArguments) {
  const auto a = parse({});
  EXPECT_EQ(a.seeds, 0);
  EXPECT_FALSE(a.quick);
  EXPECT_FALSE(a.csv);
}

TEST(BenchArgsTest, ParsesQuickFlag) {
  const auto a = parse({"--quick"});
  EXPECT_TRUE(a.quick);
  EXPECT_FALSE(a.csv);
}

TEST(BenchArgsTest, ParsesCsvFlag) {
  const auto a = parse({"--csv"});
  EXPECT_TRUE(a.csv);
  EXPECT_FALSE(a.quick);
}

TEST(BenchArgsTest, ParsesSeedsValue) {
  const auto a = parse({"--seeds", "25"});
  EXPECT_EQ(a.seeds, 25);
}

TEST(BenchArgsTest, SeedsWithoutValueIsIgnored) {
  const auto a = parse({"--seeds"});
  EXPECT_EQ(a.seeds, 0);
}

TEST(BenchArgsTest, AllFlagsTogetherInAnyOrder) {
  const auto a = parse({"--csv", "--seeds", "8", "--quick"});
  EXPECT_TRUE(a.csv);
  EXPECT_TRUE(a.quick);
  EXPECT_EQ(a.seeds, 8);
}

TEST(BenchArgsTest, UnknownArgumentIsRecorded) {
  const auto a = parse({"--frobnicate", "7", "--quick"});
  EXPECT_EQ(a.unknown, "--frobnicate");
  EXPECT_TRUE(a.quick);
  EXPECT_EQ(parse({"--quick", "--threads"}).unknown, "--threads");
  // btsc-sweep's scenario selectors and their values are not unknown.
  EXPECT_EQ(parse({"--fig", "8", "--scenario", "fig08"}).unknown, "");
}

TEST(BenchArgsTest, LastSeedsWins) {
  const auto a = parse({"--seeds", "5", "--seeds", "9"});
  EXPECT_EQ(a.seeds, 9);
}

TEST(BenchArgsTest, ParsesThreadsOutAndMaxPoints) {
  const auto a = parse({"--threads", "8", "--out", "x.json",
                        "--max-points", "3", "--base-seed", "42"});
  EXPECT_EQ(a.threads, 8);
  EXPECT_EQ(a.out, "x.json");
  EXPECT_EQ(a.max_points, 3);
  EXPECT_EQ(a.base_seed, 42u);
}

/// btsc-sweep's exit code for `--fig 8 --quick FLAG VALUE`.
int sweep_exit(const char* flag, const char* value) {
  std::array<char*, 6> argv = {
      const_cast<char*>("btsc-sweep"), const_cast<char*>("--fig"),
      const_cast<char*>("8"),          const_cast<char*>("--quick"),
      const_cast<char*>(flag),         const_cast<char*>(value)};
  return runner::run_scenario_main("fig08", 6, argv.data());
}

TEST(BenchArgsTest, MalformedNumericValuesKeepDefaults) {
  // The fields keep their defaults (not atoi("1x") == 1 by luck), the
  // first bad value is recorded, and btsc-sweep refuses to run with it:
  // exit 2 like every usage error, before any sweep starts.
  const auto a = parse({"--threads", "1x", "--seeds", "abc",
                        "--max-points", "", "--base-seed", "zzz"});
  EXPECT_EQ(a.threads, 1);
  EXPECT_EQ(a.seeds, 0);
  EXPECT_EQ(a.max_points, 0);
  EXPECT_EQ(a.base_seed, 0u);
  EXPECT_EQ(a.invalid, "--threads 1x");
  EXPECT_EQ(parse({"--quick"}).invalid, "");
  EXPECT_EQ(sweep_exit("--seeds", "abc"), 2);
  EXPECT_EQ(sweep_exit("--threads", "1x"), 2);
  EXPECT_EQ(sweep_exit("--max-points", ""), 2);
  EXPECT_EQ(sweep_exit("--base-seed", "zzz"), 2);
}

TEST(BenchArgsTest, OutOfRangeNumericValuesKeepDefaults) {
  // strtol/strtoull wraparound or saturation must not silently land in a
  // different configuration or reproducibility universe.
  const auto a = parse({"--seeds", "5000000000", "--base-seed", "-1",
                        "--max-points", "99999999999999999999"});
  EXPECT_EQ(a.seeds, 0);
  EXPECT_EQ(a.base_seed, 0u);
  EXPECT_EQ(a.max_points, 0);
  EXPECT_EQ(a.invalid, "--seeds 5000000000");
  EXPECT_EQ(sweep_exit("--seeds", "5000000000"), 2);
  EXPECT_EQ(sweep_exit("--base-seed", "-1"), 2);
  EXPECT_EQ(sweep_exit("--max-points", "99999999999999999999"), 2);
}

TEST(BenchArgsTest, ReplicationsIsAnAliasForSeeds) {
  const auto a = parse({"--replications", "12"});
  EXPECT_EQ(a.seeds, 12);
}

TEST(BenchArgsTest, DurabilityFlagsDefaultOff) {
  const auto a = parse({});
  EXPECT_TRUE(a.journal.empty());
  EXPECT_FALSE(a.resume);
  EXPECT_TRUE(a.checkpoint_dir.empty());
  EXPECT_EQ(a.rep_timeout, 0.0);
  EXPECT_EQ(a.max_retries, 0);
  EXPECT_FALSE(a.keep_going);
  EXPECT_TRUE(a.quarantine_out.empty());
}

TEST(BenchArgsTest, ParsesDurabilityFlags) {
  const auto a = parse({"--journal", "sweep.journal", "--resume",
                        "--checkpoint-dir", "ckpt", "--rep-timeout", "2.5",
                        "--max-retries", "3", "--keep-going",
                        "--quarantine-out", "quar.json"});
  EXPECT_EQ(a.journal, "sweep.journal");
  EXPECT_TRUE(a.resume);
  EXPECT_EQ(a.checkpoint_dir, "ckpt");
  EXPECT_DOUBLE_EQ(a.rep_timeout, 2.5);
  EXPECT_EQ(a.max_retries, 3);
  EXPECT_TRUE(a.keep_going);
  EXPECT_EQ(a.quarantine_out, "quar.json");
}

TEST(BenchArgsTest, MalformedTimeoutKeepsDefault) {
  const auto a = parse({"--rep-timeout", "fast", "--max-retries", "2x"});
  EXPECT_EQ(a.rep_timeout, 0.0);
  EXPECT_EQ(a.max_retries, 0);
  EXPECT_EQ(a.invalid, "--rep-timeout fast");
  EXPECT_EQ(sweep_exit("--rep-timeout", "fast"), 2);
}

TEST(BenchArgsTest, NonFiniteTimeoutIsMalformed) {
  // strtod reads these as numbers, but no deadline is NaN or infinite: a
  // NaN would run unsupervised and an infinity supervised without one.
  for (const char* text : {"nan", "NaN", "inf", "-inf", "infinity"}) {
    SCOPED_TRACE(text);
    const auto a = parse({"--rep-timeout", text});
    EXPECT_EQ(a.rep_timeout, 0.0);
    EXPECT_EQ(a.invalid, std::string("--rep-timeout ") + text);
  }
  EXPECT_EQ(sweep_exit("--rep-timeout", "nan"), 2);
  EXPECT_EQ(sweep_exit("--rep-timeout", "inf"), 2);
  // A finite value at or below zero still means no deadline.
  EXPECT_EQ(parse({"--rep-timeout", "-1"}).invalid, "");
}

TEST(ScenarioMainTest, NegativeCountsExitWithUsageError) {
  // Rejected before any sweep runs: exit 2 like every usage error, never
  // 1 (a failed run) through an exception thrown further down.
  for (const char* flag :
       {"--threads", "--seeds", "--max-points", "--max-retries"}) {
    std::array<char*, 4> argv = {const_cast<char*>("btsc-sweep"),
                                 const_cast<char*>("--quick"),
                                 const_cast<char*>(flag),
                                 const_cast<char*>("-1")};
    EXPECT_EQ(runner::run_scenario_main("fig08", 4, argv.data()), 2) << flag;
  }
}

TEST(ScenarioMainTest, UnknownOptionExitsWithUsageError) {
  // A misspelled flag must not run a sweep under silently different
  // settings.
  std::array<char*, 6> argv = {
      const_cast<char*>("btsc-sweep"), const_cast<char*>("--fig"),
      const_cast<char*>("8"),          const_cast<char*>("--quick"),
      const_cast<char*>("--treads"),   const_cast<char*>("4")};
  EXPECT_EQ(runner::run_scenario_main("fig08", 6, argv.data()), 2);
}

}  // namespace
}  // namespace btsc::core
