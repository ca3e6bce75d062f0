// The staged sweep contract: a default sweep (every replication forked
// from its point's warm-up snapshot) must be bitwise identical to the
// cold reference (ScenarioRequest::cold_warmup: the warm-up re-run per
// replication), row for row and byte for byte in the JSON artifact --
// for every registered study, so a new one is gated automatically -- and
// must stay thread-count invariant like every other sweep.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "runner/scenarios.hpp"

namespace btsc::runner {
namespace {

ScenarioRequest gate_request(const std::string& id, int threads = 1) {
  ScenarioRequest req;
  req.threads = threads;
  req.quick = true;
  req.replications = 4;
  // A throughput row needs all six packet-type cells of one BER.
  req.max_points = id == "throughput" ? 6 : 4;
  return req;
}

/// The JSON artifact, as btsc-sweep writes it.
std::string to_json(const SweepResult& result) {
  std::ostringstream os;
  core::JsonReporter reporter(os);
  write_result(result, reporter);
  return os.str();
}

void expect_rows_bitwise_equal(const SweepResult& a, const SweepResult& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].size(), b.rows[r].size());
    for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.rows[r][c]),
                std::bit_cast<std::uint64_t>(b.rows[r][c]))
          << "row " << r << " col " << c;
    }
  }
}

std::vector<std::string> study_ids() {
  std::vector<std::string> ids;
  for (const auto& s : scenarios()) ids.push_back(s.id);
  return ids;
}

class ForkMatchesCold : public ::testing::TestWithParam<std::string> {};

TEST_P(ForkMatchesCold, DefaultRunEqualsColdWarmup) {
  const std::string& id = GetParam();
  ScenarioRequest cold_req = gate_request(id);
  cold_req.cold_warmup = true;
  const SweepResult cold = run_scenario(id, cold_req);
  ASSERT_FALSE(cold.rows.empty()) << "the gate would compare no samples";
  // The fork shares one snapshot image across worker threads, which is
  // exactly where a mutable-cache bug would show: two studies also cross
  // thread counts.
  std::vector<int> thread_counts = {1};
  if (id == "fig08" || id == "fig10") thread_counts = {1, 2, 8};
  for (int threads : thread_counts) {
    SCOPED_TRACE(id + " at " + std::to_string(threads) + " thread(s)");
    const SweepResult fork = run_scenario(id, gate_request(id, threads));
    expect_rows_bitwise_equal(cold, fork);
    EXPECT_EQ(to_json(cold), to_json(fork));
  }
}

INSTANTIATE_TEST_SUITE_P(AllStudies, ForkMatchesCold,
                         ::testing::ValuesIn(study_ids()),
                         [](const auto& info) { return info.param; });

TEST(CheckpointSweep, ForkedSweepThreadCountInvariant) {
  const SweepResult serial = run_scenario("fig08", gate_request("fig08"));
  for (int threads : {2, 8}) {
    const SweepResult pooled =
        run_scenario("fig08", gate_request("fig08", threads));
    expect_rows_bitwise_equal(serial, pooled);
    EXPECT_EQ(to_json(serial), to_json(pooled));
  }
}

}  // namespace
}  // namespace btsc::runner
