// Traced signals (sim::TraceLine): declaration, change recording, and
// detaching the tracer.
#include <gtest/gtest.h>

#include "sim/environment.hpp"
#include "sim/tracer.hpp"
#include "support/recording_tracer.hpp"

namespace btsc::sim {
namespace {

using namespace btsc::sim::literals;

TEST(SignalTest, InitialValue) {
  Environment env;
  RecordingTracer tracer(env);
  env.set_tracer(&tracer);
  TraceLine line(env, "top.sig", 'z');
  EXPECT_EQ(line.value(), 'z');
  // Declared with its initial value as the time-zero record.
  ASSERT_EQ(tracer.records().size(), 1u);
  EXPECT_EQ(tracer.records()[0].name, "top.sig");
  EXPECT_EQ(tracer.records()[0].value, 'z');
}

TEST(SignalTraceTest, RecordingTracerSeesCommittedChanges) {
  Environment env;
  RecordingTracer tracer(env);
  env.set_tracer(&tracer);
  TraceLine line(env, "top.sig", '0');
  env.schedule(5_us, [&] { line.set('1'); });
  env.schedule(7_us, [&] { line.set('1'); });  // no change: not recorded
  env.schedule(9_us, [&] { line.set('0'); });
  env.run_until(1_ms);
  // First record is the initial value at declaration time.
  ASSERT_EQ(tracer.records().size(), 3u);
  EXPECT_EQ(tracer.records()[1].time_ns, 5000u);
  EXPECT_EQ(tracer.records()[1].value, '1');
  EXPECT_EQ(tracer.records()[2].time_ns, 9000u);
  EXPECT_EQ(tracer.records()[2].value, '0');
  EXPECT_EQ(line.value(), '0');
}

TEST(SignalTraceTest, UntracedAndDetachedLinesRecordNothing) {
  Environment env;
  TraceLine untraced(env, "top.before", '0');  // no tracer attached yet
  RecordingTracer tracer(env);
  env.set_tracer(&tracer);
  TraceLine line(env, "top.sig", '0');
  untraced.set('1');
  line.set('1');
  ASSERT_EQ(tracer.records().size(), 2u);  // line's declaration and change
  env.set_tracer(nullptr);
  line.set('0');
  env.set_tracer(&tracer);  // a detached line stays untraced
  line.set('1');
  EXPECT_EQ(tracer.records().size(), 2u);
  EXPECT_EQ(line.value(), '1');
  EXPECT_EQ(untraced.value(), '1');
}

}  // namespace
}  // namespace btsc::sim
