// Signal semantics: deferred update, change events, edge events, tracing.
#include "sim/signal.hpp"

#include <gtest/gtest.h>

#include "sim/environment.hpp"
#include "sim/tracer.hpp"
#include "support/recording_tracer.hpp"

namespace btsc::sim {
namespace {

using namespace btsc::sim::literals;

TEST(SignalTest, InitialValue) {
  Environment env;
  Signal<int> s(env, "s", 42);
  EXPECT_EQ(s.read(), 42);
}

TEST(SignalTest, WriteIsDeferredUntilUpdatePhase) {
  Environment env;
  Signal<int> s(env, "s", 0);
  s.write(5);
  EXPECT_EQ(s.read(), 0);  // not yet committed
  env.settle();
  EXPECT_EQ(s.read(), 5);
}

TEST(SignalTest, LastWriteInDeltaWins) {
  Environment env;
  Signal<int> s(env, "s", 0);
  s.write(1);
  s.write(2);
  s.write(3);
  env.settle();
  EXPECT_EQ(s.read(), 3);
}

TEST(SignalTest, ChangeEventFiresOnRealChangeOnly) {
  Environment env;
  Signal<int> s(env, "s", 7);
  int changes = 0;
  Process& p = env.register_process([&] { changes++; });
  s.value_changed_event().add_sensitive(p);
  env.schedule(1_us, [&] { s.write(7); });  // same value: no event
  env.schedule(2_us, [&] { s.write(8); });  // change: one event
  env.run_until(1_ms);
  EXPECT_EQ(changes, 1);
}

TEST(SignalTest, ReaderInSameDeltaSeesOldValue) {
  // A process triggered in the same delta as a write must read the
  // pre-write value; after the update phase it sees the new one.
  Environment env;
  Signal<int> s(env, "s", 0);
  Event go(env);
  int observed_during = -1;
  Process& p = env.register_process([&] {
    observed_during = s.read();
  });
  go.add_sensitive(p);
  env.schedule(1_us, [&] {
    s.write(99);
    go.notify_delta();
  });
  env.run_until(1_ms);
  // The reader ran in the delta *after* the write's evaluate phase, i.e.
  // after commit, so it observes 99; but a same-phase read sees 0:
  EXPECT_EQ(observed_during, 99);
  EXPECT_EQ(s.read(), 99);
}

TEST(SignalTest, ChainOfDependentProcessesSettles) {
  Environment env;
  Signal<int> a(env, "a", 0), b(env, "b", 0), c(env, "c", 0);
  Process& pa = env.register_process([&] { b.write(a.read() + 1); });
  Process& pb = env.register_process([&] { c.write(b.read() + 1); });
  a.value_changed_event().add_sensitive(pa);
  b.value_changed_event().add_sensitive(pb);
  env.schedule(1_us, [&] { a.write(10); });
  env.run_until(1_ms);
  EXPECT_EQ(b.read(), 11);
  EXPECT_EQ(c.read(), 12);
}

TEST(SignalTest, EnumSignalsWork) {
  enum class Color : std::uint8_t { kRed, kGreen, kBlue };
  Environment env;
  Signal<Color> s(env, "color", Color::kRed);
  s.write(Color::kBlue);
  env.settle();
  EXPECT_EQ(s.read(), Color::kBlue);
}

TEST(SignalTraceTest, RecordingTracerSeesCommittedChanges) {
  Environment env;
  RecordingTracer tracer(env);
  env.set_tracer(&tracer);
  Signal<bool> s(env, "top.sig", false);
  env.schedule(5_us, [&] { s.write(true); });
  env.schedule(9_us, [&] { s.write(false); });
  env.run_until(1_ms);
  // First record is the initial value at declaration time.
  ASSERT_EQ(tracer.records().size(), 3u);
  EXPECT_EQ(tracer.records()[1].time_ns, 5000u);
  EXPECT_EQ(tracer.records()[1].value, "1");
  EXPECT_EQ(tracer.records()[2].time_ns, 9000u);
  EXPECT_EQ(tracer.records()[2].value, "0");
}

TEST(SignalTraceTest, IntEncoderProducesBinary) {
  using Enc = TraceEncoder<std::uint8_t>;
  EXPECT_EQ(Enc::width(), 8u);
  EXPECT_EQ(Enc::encode(0xA5), "10100101");
}

TEST(SignalTraceTest, BoolEncoder) {
  using Enc = TraceEncoder<bool>;
  EXPECT_EQ(Enc::width(), 1u);
  EXPECT_EQ(Enc::encode(true), "1");
  EXPECT_EQ(Enc::encode(false), "0");
}

}  // namespace
}  // namespace btsc::sim
