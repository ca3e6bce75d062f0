// Simulator performance (google-benchmark).
//
// The paper reports its SystemC model simulating the 0.48 s four-device
// creation scenario in 10'47" of CPU time -- 747 Bluetooth clock cycles
// (1 MHz symbol clock) per wall-clock second. This bench measures the
// same figure for this kernel, plus the raw scheduler throughput and the
// schedule/cancel churn the baseband state machines generate.
//
// The main() emits a "btsc_build_type" entry into the benchmark JSON
// context: the build type the btsc library itself was compiled with.
// google-benchmark's own "library_build_type" describes libbenchmark
// (the distro ships a debug build of it), which says nothing about the
// numbers measured here -- bench/run_benches keys off btsc_build_type
// and refuses to record baselines from non-Release trees.
#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "baseband/access_code.hpp"
#include "baseband/bt_clock.hpp"
#include "baseband/packet.hpp"
#include "baseband/receiver.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "phy/channel.hpp"
#include "sim/environment.hpp"

namespace {

using namespace btsc;
using namespace btsc::sim::literals;

/// The paper's scenario: 4 devices, 0.48 s of simulated time during
/// piconet creation. Reports simulated 1 MHz clock cycles per second.
/// `burst` selects the word-packed burst transport (the default) or the
/// one-event-per-bit reference path -- the pair measures exactly what
/// the PHY batching buys on the headline scenario.
void paper_scenario(benchmark::State& state, bool burst) {
  for (auto _ : state) {
    core::SystemConfig sc;
    sc.num_slaves = 3;
    sc.seed = 7;
    sc.lc.inquiry_timeout_slots = 65000;
    core::BluetoothSystem sys(sc);
    sys.channel().set_burst_transport_enabled(burst);
    // Start the creation (inquiry + scans) and run 0.48 s of sim time.
    for (int i = 0; i < 3; ++i) sys.slave(i).lc().enable_inquiry_scan();
    sys.master().lc().enable_inquiry();
    sys.run(480_ms);
    benchmark::DoNotOptimize(sys.env().process_activations());
  }
  // 0.48 s at 1 MHz = 480000 simulated clock cycles per iteration.
  state.counters["sim_clock_cycles_per_s"] = benchmark::Counter(
      480e3 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_PaperScenario480ms(benchmark::State& state) {
  paper_scenario(state, /*burst=*/true);
}
BENCHMARK(BM_PaperScenario480ms)->Unit(benchmark::kMillisecond);

void BM_PaperScenario480msPerBit(benchmark::State& state) {
  paper_scenario(state, /*burst=*/false);
}
BENCHMARK(BM_PaperScenario480msPerBit)->Unit(benchmark::kMillisecond);

/// The same creation scenario on a noisy channel (BER 1/60, mid-range
/// on the paper's Fig. 6-8 sweeps). On the burst side every packet
/// rides a noisy run: the port's noise stream draws the gap to each
/// flipped bit (one draw per flip, phy::NoiseStream::advance) and XORs
/// the flips into the run's copy of the packet. The per-bit side
/// consumes the same gaps one driven bit at a time. The pair measures
/// what batching buys on noisy scenarios.
void noisy_scenario(benchmark::State& state, bool burst) {
  for (auto _ : state) {
    core::SystemConfig sc;
    sc.num_slaves = 3;
    sc.seed = 7;
    sc.ber = 1.0 / 60.0;
    sc.lc.inquiry_timeout_slots = 65000;
    core::BluetoothSystem sys(sc);
    sys.channel().set_burst_transport_enabled(burst);
    for (int i = 0; i < 3; ++i) sys.slave(i).lc().enable_inquiry_scan();
    sys.master().lc().enable_inquiry();
    sys.run(480_ms);
    benchmark::DoNotOptimize(sys.env().process_activations());
  }
  state.counters["sim_clock_cycles_per_s"] = benchmark::Counter(
      480e3 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_NoisyScenario480ms(benchmark::State& state) {
  noisy_scenario(state, /*burst=*/true);
}
BENCHMARK(BM_NoisyScenario480ms)->Unit(benchmark::kMillisecond);

void BM_NoisyScenario480msPerBit(benchmark::State& state) {
  noisy_scenario(state, /*burst=*/false);
}
BENCHMARK(BM_NoisyScenario480msPerBit)->Unit(benchmark::kMillisecond);

/// Full packet codec round trip through the word-packed framing stack:
/// compose a DH5 (access code, header FEC 1/3 + HEC, whitening, CRC),
/// then run every air bit through the receiver's batched sink protocol
/// -- sliding-word sync correlation, bulk assembly, block FEC/whitening
/// removal, table CRC -- exactly as a burst run delivers it.
void BM_PacketDecode(benchmark::State& state) {
  using namespace btsc::baseband;
  const std::uint32_t lap = 0x2A613C;
  const std::uint8_t uap = 0x47;
  PacketHeader h;
  h.type = PacketType::kDh5;
  h.lt_addr = 1;
  LinkParams params;
  params.check_init = uap;
  params.whiten_init = std::uint8_t{0x55};
  const std::vector<std::uint8_t> user(300, 0xA5);
  const std::vector<std::uint8_t> body =
      build_acl_body(PacketType::kDh5, kLlidStart, true, user);

  sim::Environment env;
  Receiver rec(env, "rx");
  std::uint64_t delivered = 0;
  rec.set_handler([&](const Receiver::Result& r) {
    delivered += r.payload_ok ? 1 : 0;
  });

  std::uint64_t bits_total = 0;
  for (auto _ : state) {
    phy::BitsPacket packet;
    sim::BitVector& bits = packet.mutable_bits();
    AccessCode::of(lap).append_to(bits, kAccessCodeBits);
    compose_after_access_code(h, body, params, bits);
    rec.configure(sync_bits(lap), uap, params.whiten_init,
                  Receiver::Expect::kFull);
    // Deliver the packet the way a burst run does: quiet spans in bulk,
    // effect samples through the per-sample entry.
    std::size_t pos = 0;
    while (pos < bits.size()) {
      const std::size_t q =
          rec.quiet_prefix(&packet, pos, bits.size() - pos);
      rec.consume_quiet(&packet, pos, q);
      pos += q;
      if (pos < bits.size()) {
        rec.on_sample(phy::from_bit(bits[pos]));
        ++pos;
      }
    }
    bits_total += bits.size();
    benchmark::DoNotOptimize(delivered);
  }
  if (delivered != static_cast<std::uint64_t>(state.iterations())) {
    state.SkipWithError("DH5 round trip failed to decode");
  }
  state.counters["air_bits_per_s"] = benchmark::Counter(
      static_cast<double>(bits_total), benchmark::Counter::kIsRate);
  state.counters["packets_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PacketDecode)->Unit(benchmark::kMicrosecond);

/// Raw kernel: one self-rescheduling timer (event-queue throughput).
void BM_TimerChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Environment env;
    std::uint64_t count = 0;
    std::function<void()> tick = [&] {
      if (++count < 100000) env.schedule(1_us, tick);
    };
    env.schedule(1_us, tick);
    env.run_until(sim::SimTime::sec(10));
    benchmark::DoNotOptimize(count);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      1e5 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimerChain)->Unit(benchmark::kMillisecond);

/// Scheduler churn: the schedule/cancel storm of the paper's 480 ms
/// connection-creation scenario, distilled. Every half-slot tick the
/// link controller arms a handful of guard timers (carrier-sense window
/// closes, backoff, response-dialogue timeouts) and the next state
/// transition cancels them before they fire, while long-lived timeouts
/// (inquiry/page, 2+ s out) sit deep in the queue for the whole run.
/// Counts kernel operations (schedule + cancel + fire) per second; a
/// scheduler that merely forgets the callback on cancel still pays the
/// queue traversal for every dead entry and scores accordingly.
void BM_SchedulerChurn(benchmark::State& state) {
  constexpr int kTicks = 1536;       // 480 ms of 312.5 us half-slots
  constexpr int kGuardsPerTick = 8;  // rx-close / backoff / dialogue arms
  constexpr int kStandingTimers = 64;
  // Kernel operations per iteration: every schedule, every cancel and
  // every dispatched callback (ticks plus the last tick's uncanceled
  // guards; the standing timeouts stay pending for the whole run).
  constexpr std::uint64_t kOpsPerIter =
      (kStandingTimers + kTicks * (kGuardsPerTick + 1)) +  // schedules
      (kTicks - 1) * kGuardsPerTick +                      // cancels
      (kTicks + kGuardsPerTick);                           // fires
  for (auto _ : state) {
    sim::Environment env;
    std::uint64_t fired = 0;
    std::vector<sim::TimerId> guards;
    guards.reserve(kGuardsPerTick);
    // Standing timeouts that outlive the measurement window: they keep
    // the heap deep for the whole storm.
    for (int i = 0; i < kStandingTimers; ++i) {
      env.schedule(sim::SimTime::sec(2 + i), [] {});
    }
    int tick = 0;
    std::function<void()> half_slot = [&] {
      // The state moved on: cancel the previous tick's guards (they are
      // armed 700+ us out, so none has fired yet).
      for (sim::TimerId id : guards) env.cancel(id);
      guards.clear();
      for (int g = 0; g < kGuardsPerTick; ++g) {
        guards.push_back(env.schedule(sim::SimTime::us(700 + 40 * g),
                                      [&fired] { ++fired; }));
      }
      if (++tick < kTicks) {
        env.schedule(sim::SimTime::ns(312'500), half_slot);
      }
    };
    env.schedule(sim::SimTime::zero(), half_slot);
    env.run_until(sim::SimTime::sec(1));
    benchmark::DoNotOptimize(fired);
  }
  state.counters["events_per_s"] = benchmark::Counter(
      static_cast<double>(kOpsPerIter) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SchedulerChurn)->Unit(benchmark::kMillisecond);

/// Checkpoint primitives on the image the Fig. 8 fork caches: the
/// four-device creation system at its settled t = 0 boundary. Reports
/// the serialisation rate and the image size -- the per-replication
/// cost a sweep pays instead of re-running the warm-up.
void BM_SnapshotSave(benchmark::State& state) {
  const auto sys = core::make_creation_system(
      /*ber=*/0.01, /*timeout_slots=*/2048, /*seed=*/7);
  std::vector<std::uint8_t> bytes;
  for (auto _ : state) {
    bytes = sys->save_snapshot();
    benchmark::DoNotOptimize(bytes.data());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes.size());
  state.counters["snapshots_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotSave)->Unit(benchmark::kMicrosecond);

/// restore_snapshot() into an already-constructed scaffold -- the
/// steady-state fork cost once the per-point image exists (the scaffold
/// construction itself is measured by the sweep wall-clock comparison).
void BM_SnapshotRestore(benchmark::State& state) {
  const auto warm = core::make_creation_system(
      /*ber=*/0.01, /*timeout_slots=*/2048, /*seed=*/7);
  const std::vector<std::uint8_t> bytes = warm->save_snapshot();
  const auto scaffold = core::make_creation_system(
      /*ber=*/0.01, /*timeout_slots=*/2048, /*seed=*/7);
  for (auto _ : state) {
    scaffold->restore_snapshot(bytes);
    benchmark::DoNotOptimize(scaffold.get());
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes.size());
  state.counters["restores_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMicrosecond);

/// Build type of the btsc library this bench links: "release" only when
/// compiled with NDEBUG from a Release tree. Anything else taints the
/// numbers and run_benches refuses to record them as the baseline.
const char* btsc_build_type() {
#ifndef NDEBUG
  return "debug";
#else
#ifdef BTSC_CMAKE_BUILD_TYPE_RELEASE
  return "release";
#else
  return "optimized-non-release";  // e.g. RelWithDebInfo
#endif
#endif
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::AddCustomContext("btsc_build_type", btsc_build_type());
  benchmark::AddCustomContext(
      "burst_transport",
      btsc::phy::NoisyChannel::burst_transport_default() ? "on" : "off");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
