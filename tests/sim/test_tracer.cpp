#include "sim/tracer.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/environment.hpp"
#include "sim/event.hpp"
#include "support/recording_tracer.hpp"

namespace btsc::sim {
namespace {

using namespace btsc::sim::literals;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class VcdTracerTest : public ::testing::Test {
 protected:
  // Unique per process: ctest runs each TEST_F as its own process, in
  // parallel, and they must not clobber each other's VCD file.
  std::string path_ = ::testing::TempDir() + "btsc_tracer_test_" +
                      std::to_string(::getpid()) + ".vcd";
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(VcdTracerTest, WritesWellFormedHeaderAndChanges) {
  Environment env;
  {
    VcdTracer tracer(env, path_);
    env.set_tracer(&tracer);
    TraceLine s(env, "dev.enable_rx_RF", '0');
    env.schedule(625_us, [&] { s.set('1'); });
    env.schedule(1250_us, [&] { s.set('0'); });
    env.run_until(2_ms);
    tracer.close();
  }
  const std::string vcd = slurp(path_);
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$var wire 1 ! dev.enable_rx_RF $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(vcd.find("$dumpvars\n0!\n$end\n"), std::string::npos);
  EXPECT_NE(vcd.find("#625000\n1!"), std::string::npos);
  EXPECT_NE(vcd.find("#1250000\n0!"), std::string::npos);
}

TEST_F(VcdTracerTest, DuplicateValueSuppressed) {
  Environment env;
  {
    VcdTracer tracer(env, path_);
    env.set_tracer(&tracer);
    const TraceId id = tracer.declare("x", '0');
    env.schedule(1_us, [&] { tracer.change(id, '1'); });
    env.schedule(2_us, [&] { tracer.change(id, '1'); });  // suppressed
    env.schedule(3_us, [&] { tracer.change(id, '0'); });
    env.run_until(5_us);
    tracer.close();
  }
  const std::string vcd = slurp(path_);
  // Exactly one "1!" after the header, and no timestamp for the repeat.
  const auto first = vcd.find("#1000\n1!");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(vcd.find("1!", first + 8), std::string::npos);
  EXPECT_EQ(vcd.find("#2000"), std::string::npos);
  EXPECT_NE(vcd.find("#3000\n0!"), std::string::npos);
}

TEST_F(VcdTracerTest, GlitchWithinOneInstantWritesNothing) {
  // The line rises in a timed callback at 5 us and falls in the process
  // a later timed callback wakes, `gap` after it. With no gap the fall
  // runs in the tick delta of the same instant, which then ends where
  // it began: the file shows no change there. One microsecond apart,
  // both changes are written.
  const auto trace = [&](SimTime gap) {
    Environment env;
    {
      VcdTracer tracer(env, path_);
      env.set_tracer(&tracer);
      TraceLine line(env, "dev.enable_rx_RF", '0');
      Event tick(env);
      tick.add_sensitive(env.register_process([&] { line.set('0'); }));
      env.schedule(5_us, [&] { line.set('1'); });
      env.schedule(5_us + gap, [&] { tick.notify_delta(); });
      env.run_until(10_us);
      tracer.close();
    }
    const std::string vcd = slurp(path_);
    return vcd.substr(vcd.find("$dumpvars"));
  };
  EXPECT_EQ(trace(SimTime::zero()), "$dumpvars\n0!\n$end\n");
  EXPECT_EQ(trace(1_us), "$dumpvars\n0!\n$end\n#5000\n1!\n#6000\n0!\n");
}

TEST_F(VcdTracerTest, DeclareAfterStartThrows) {
  Environment env;
  VcdTracer tracer(env, path_);
  const TraceId id = tracer.declare("x", '0');
  tracer.change(id, '1');
  EXPECT_THROW(tracer.declare("y", '0'), std::logic_error);
}

TEST_F(VcdTracerTest, UnopenablePathThrows) {
  Environment env;
  EXPECT_THROW(VcdTracer(env, "/nonexistent_dir_btsc/file.vcd"),
               std::runtime_error);
}

TEST_F(VcdTracerTest, CanceledTimersDoNotPerturbWaveform) {
  // Regression for the old kernel: dead queue entries made run_until
  // advance now_ through canceled instants. The waveform written while a
  // schedule/cancel storm runs alongside must be byte-identical to one
  // with no canceled timers at all.
  auto run = [](Environment& env, const std::string& path,
                bool with_canceled_storm) {
    VcdTracer tracer(env, path);
    env.set_tracer(&tracer);
    TraceLine s(env, "dev.enable_rx_RF", '0');
    std::vector<TimerId> dead;
    if (with_canceled_storm) {
      for (int i = 0; i < 16; ++i) {
        dead.push_back(env.schedule(SimTime::us(100 + 10 * i), [] {}));
      }
    }
    env.schedule(625_us, [&] { s.set('1'); });
    env.schedule(1250_us, [&] { s.set('0'); });
    for (TimerId id : dead) env.cancel(id);
    env.run_until(2_ms);
    tracer.close();
  };
  const std::string churn_path = ::testing::TempDir() + "btsc_churn.vcd";
  std::string clean, churned;
  {
    Environment env;
    run(env, path_, false);
    clean = slurp(path_);
  }
  {
    Environment env;
    run(env, churn_path, true);
    churned = slurp(churn_path);
    std::remove(churn_path.c_str());
  }
  EXPECT_FALSE(clean.empty());
  EXPECT_EQ(clean, churned);
}

TEST(RecordingTracerTest, KeepsNameAndTime) {
  Environment env;
  RecordingTracer tracer(env);
  const TraceId a = tracer.declare("sig_a", '0');
  const TraceId b = tracer.declare("sig_b", 'z');
  env.schedule(3_us, [&] {
    tracer.change(a, '1');
    tracer.change(b, 'x');
  });
  env.run_until(10_us);
  ASSERT_EQ(tracer.records().size(), 4u);
  EXPECT_EQ(tracer.records()[1].value, 'z');
  EXPECT_EQ(tracer.records()[2].name, "sig_a");
  EXPECT_EQ(tracer.records()[2].time_ns, 3000u);
  EXPECT_EQ(tracer.records()[3].name, "sig_b");
  EXPECT_EQ(tracer.records()[3].value, 'x');
}

}  // namespace
}  // namespace btsc::sim
