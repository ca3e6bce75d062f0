#include "core/system.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

namespace btsc::core {
namespace {

using namespace btsc::sim::literals;

SystemConfig reliable(int slaves = 1, std::uint64_t seed = 11) {
  SystemConfig sc;
  sc.num_slaves = slaves;
  sc.seed = seed;
  sc.lc.inquiry_timeout_slots = 32768;
  sc.lc.page_timeout_slots = 16384;
  return sc;
}

TEST(BluetoothSystemTest, RejectsBadSlaveCount) {
  SystemConfig sc;
  sc.num_slaves = 0;
  EXPECT_THROW(BluetoothSystem{sc}, std::invalid_argument);
  sc.num_slaves = 8;
  EXPECT_THROW(BluetoothSystem{sc}, std::invalid_argument);
}

TEST(BluetoothSystemTest, DevicesHaveDistinctAddresses) {
  BluetoothSystem sys(reliable(3));
  EXPECT_NE(sys.master().address(), sys.slave(0).address());
  EXPECT_NE(sys.slave(0).address(), sys.slave(1).address());
  EXPECT_NE(sys.slave(1).address(), sys.slave(2).address());
  EXPECT_EQ(sys.num_slaves(), 3);
}

TEST(BluetoothSystemTest, InquiryThenPageConnects) {
  BluetoothSystem sys(reliable());
  const PhaseResult inq = sys.run_inquiry();
  ASSERT_TRUE(inq.success);
  EXPECT_GT(inq.slots, 0u);
  const PhaseResult page = sys.run_page(0);
  ASSERT_TRUE(page.success);
  EXPECT_LT(page.slots, 200u);
  EXPECT_EQ(sys.lt_addr_of(0), 1);
}

// A page nobody answers fails within a slot of the page timeout, counted
// from enable_page. The discovered slave stays in inquiry scan, which
// never answers a page ID train.
TEST(BluetoothSystemTest, PageTimesOutWhenNothingAnswers) {
  for (const std::uint64_t seed : {3, 4, 5}) {
    SCOPED_TRACE(seed);
    SystemConfig sc = reliable(1, seed);
    sc.lc.page_timeout_slots = 512;
    BluetoothSystem sys(sc);
    ASSERT_TRUE(sys.run_inquiry().success);
    ASSERT_EQ(sys.slave(0).lc().state(), baseband::LcState::kInquiryScan);
    const baseband::DiscoveredDevice found =
        sys.master().lc().discovered().at(0);
    sys.run(3_ms);  // page from a different tick phase than the inquiry end

    std::optional<bool> done;
    sim::SimTime done_at;
    lm::LinkManager::Events ev;
    ev.page_complete = [&](bool ok) {
      done = ok;
      done_at = sys.env().now();
    };
    sys.master_lm().set_events(std::move(ev));
    const sim::SimTime start = sys.env().now();
    sys.master().lc().enable_page(found.addr, found.clkn_offset);
    sys.run(baseband::kSlotDuration * 600);

    ASSERT_TRUE(done.has_value());
    EXPECT_FALSE(*done);
    const std::uint64_t slots = (done_at - start) / baseband::kSlotDuration;
    EXPECT_GE(slots, 511u);
    EXPECT_LE(slots, 513u);
    EXPECT_EQ(sys.master().lc().stats().id_rx, 0u);  // no dialogue began
    EXPECT_EQ(sys.master().lc().state(), baseband::LcState::kStandby);
  }
}

// run_inquiry's completion handler writes to the function's locals, so
// it must not stay installed after the call returns: an inquiry started
// later by hand would complete into a dead frame (ASan reports it with
// detect_stack_use_after_return=1).
TEST(BluetoothSystemTest, SecondInquiryAfterRunInquiryCompletes) {
  BluetoothSystem sys(reliable());
  ASSERT_TRUE(sys.run_inquiry().success);
  ASSERT_EQ(sys.slave(0).lc().state(), baseband::LcState::kInquiryScan);
  sys.master().lc().enable_inquiry();
  ASSERT_EQ(sys.master().lc().state(), baseband::LcState::kInquiry);
  for (int ms = 0; ms < 30000 &&
                   sys.master().lc().state() == baseband::LcState::kInquiry;
       ++ms) {
    sys.run(1_ms);
  }
  EXPECT_EQ(sys.master().lc().state(), baseband::LcState::kStandby);
  EXPECT_FALSE(sys.master().lc().discovered().empty());
}

TEST(BluetoothSystemTest, PageWithoutDiscoveryFails) {
  BluetoothSystem sys(reliable());
  const PhaseResult page = sys.run_page(0);  // no inquiry ran
  EXPECT_FALSE(page.success);
}

TEST(BluetoothSystemTest, CreatePiconetTwoSlaves) {
  BluetoothSystem sys(reliable(2, 5));
  ASSERT_TRUE(sys.create_piconet());
  EXPECT_EQ(sys.master().lc().piconet().slaves().size(), 2u);
  EXPECT_NE(sys.lt_addr_of(0), 0);
  EXPECT_NE(sys.lt_addr_of(1), 0);
}

TEST(BluetoothSystemTest, VcdTraceWritten) {
  const std::string path = ::testing::TempDir() + "btsc_system_trace.vcd";
  {
    SystemConfig sc = reliable();
    sc.vcd_path = path;
    BluetoothSystem sys(sc);
    sys.run(10_ms);
    sys.finish_trace();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream os;
  os << in.rdbuf();
  const std::string vcd = os.str();
  EXPECT_NE(vcd.find("enable_rx_RF"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BluetoothSystemTest, InquiryAfterFinishTraceCompletes) {
  // finish_trace() detaches the tracer; signals built while it was
  // attached must stop tracing instead of writing through a null tracer.
  const std::string path = ::testing::TempDir() + "btsc_finished_trace.vcd";
  SystemConfig sc = reliable();
  sc.vcd_path = path;
  BluetoothSystem sys(sc);
  sys.run(10_ms);
  sys.finish_trace();
  EXPECT_TRUE(sys.run_inquiry().success);
  std::remove(path.c_str());
}

TEST(BluetoothSystemTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    BluetoothSystem sys(reliable(1, seed));
    const PhaseResult inq = sys.run_inquiry();
    return std::pair<bool, std::uint64_t>(inq.success, inq.slots);
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));  // different seeds differ
}

}  // namespace
}  // namespace btsc::core
