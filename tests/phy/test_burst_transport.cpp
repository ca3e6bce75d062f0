// Burst-transport semantics at the phy layer: run acceptance and
// refusal, one run per frequency, per-bit fallback on
// contention/abort/reconfiguration, lazy receiver
// equivalence (every sample stream must match the per-bit reference
// radio bit for bit, also over seeded random contention), checkpoints
// taken between concurrent runs, and the lazy diagnostics counters.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/bitvector.hpp"
#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"
#include "support/bits.hpp"
#include "support/quiet_sink.hpp"

namespace btsc::phy {
namespace {

using namespace btsc::sim::literals;
using btsc::sim::BitVector;
using btsc::sim::Environment;
using btsc::sim::SimTime;
using btsc::test::QuietSink;

/// Burst sink that declares EVERY sample a side effect: forces one
/// barrier per sample, i.e. per-bit timing through the lazy machinery.
struct EagerSink final : BurstRxSink {
  std::vector<Logic4> seen;
  std::vector<SimTime> at;
  Environment* env = nullptr;
  std::size_t quiet_prefix(const AirPacket*, std::size_t,
                           std::size_t) override {
    return 0;
  }
  void consume_quiet(const AirPacket*, std::size_t,
                     std::size_t count) override {
    ASSERT_EQ(count, 0u) << "eager sink must never consume in bulk";
  }
  void on_sample(Logic4 v) override {
    seen.push_back(v);
    if (env != nullptr) at.push_back(env->now());
  }
};

/// Drives `script(sys)` twice -- once against a lazy QuietSink radio,
/// once against a QuietSink radio on a per-bit channel -- and requires
/// identical sample streams. The script gets (env, channel, tx radio,
/// rx radio).
template <typename Script>
void expect_stream_equivalence(Script script) {
  std::vector<Logic4> burst_seen;
  std::vector<Logic4> ref_seen;
  {
    Environment env(11);
    NoisyChannel ch(env, "ch");
    Radio tx(env, "tx", ch), rx(env, "rx", ch);
    QuietSink sink;
    rx.set_burst_rx_sink(&sink);
    script(env, ch, tx, rx);
    burst_seen = sink.seen;
  }
  {
    Environment env(11);
    NoisyChannel ch(env, "ch");
    ch.set_burst_transport_enabled(false);
    Radio tx(env, "tx", ch), rx(env, "rx", ch);
    QuietSink ref;
    rx.set_burst_rx_sink(&ref);
    script(env, ch, tx, rx);
    ref_seen = ref.seen;
  }
  ASSERT_EQ(burst_seen.size(), ref_seen.size());
  for (std::size_t i = 0; i < ref_seen.size(); ++i) {
    ASSERT_EQ(burst_seen[i], ref_seen[i]) << "sample " << i;
  }
}

TEST(BurstTransportTest, SoleTransmitterRunIsAcceptedAndCounted) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch);
  tx.transmit(5, BitVector(100, true));
  EXPECT_TRUE(ch.busy());
  EXPECT_EQ(ch.sense(5), Logic4::kOne);
  env.run(200_us);
  EXPECT_EQ(ch.bits_burst(), 100u);
  EXPECT_EQ(ch.bits_driven(), 100u);
  EXPECT_EQ(ch.burst_fallbacks(), 0u);
  EXPECT_FALSE(ch.busy());
  EXPECT_EQ(tx.bits_sent(), 100u);
}

TEST(BurstTransportTest, NoisyPacketsBurstViaNoiseStream) {
  // BER > 0 does not force the per-bit path: the run draws its flips
  // from its port's noise stream and still transports in one burst.
  Environment env;
  ChannelConfig cfg;
  cfg.ber = 0.01;
  NoisyChannel ch(env, "ch", cfg);
  Radio tx(env, "tx", ch);
  tx.transmit(0, BitVector(10, true));
  env.run(20_us);
  EXPECT_EQ(ch.bits_burst(), 10u);
  EXPECT_EQ(ch.bits_driven(), 10u);
  EXPECT_EQ(ch.burst_fallbacks(), 0u);
}

TEST(BurstTransportTest, RefusedWhenDelayedOrDisabled) {
  Environment env;
  NoisyChannel ch(env, "ch");
  ch.set_burst_transport_enabled(false);
  Radio tx(env, "tx", ch);
  tx.transmit(0, BitVector(10, true));
  env.run(20_us);
  EXPECT_EQ(ch.bits_burst(), 0u);
}

TEST(BurstTransportTest, QuietSinkSeesExactPerBitStream) {
  expect_stream_equivalence([](Environment& env, NoisyChannel&, Radio& tx,
                               Radio& rx) {
    rx.enable_rx(7);
    env.run(5_us);  // a few silent samples first
    tx.transmit(7, test::bits("1011001110001011"));
    env.run(40_us);  // run + trailing silence
    rx.disable_rx();
  });
}

TEST(BurstTransportTest, MidRunEnableAndRetuneSeeTheRun) {
  expect_stream_equivalence([](Environment& env, NoisyChannel&, Radio& tx,
                               Radio& rx) {
    tx.transmit(7, BitVector(64, true));
    env.run(10_us);
    rx.enable_rx(3);   // wrong frequency: silence
    env.run(10_us);
    rx.retune_rx(7);   // joins the run mid-flight
    env.run(20_us);
    rx.retune_rx(4);   // leaves it again
    env.run(30_us);
    rx.disable_rx();
  });
}

TEST(BurstTransportTest, ContentionFallsBackToExactPerBit) {
  std::vector<Logic4> burst_seen;
  std::vector<Logic4> ref_seen;
  for (int mode = 0; mode < 2; ++mode) {
    Environment env(3);
    NoisyChannel ch(env, "ch");
    if (mode == 1) ch.set_burst_transport_enabled(false);
    Radio a(env, "a", ch), b(env, "b", ch), rx(env, "rx", ch);
    QuietSink sink;
    rx.set_burst_rx_sink(&sink);
    rx.enable_rx(9);
    a.transmit(9, BitVector(60, true));
    env.run(20_us);
    b.transmit(9, BitVector(20, false));  // same freq: collision
    env.run(100_us);
    rx.disable_rx();  // materialise any lazily pending trailing silence
    if (mode == 0) {
      EXPECT_EQ(ch.burst_fallbacks(), 1u);
      burst_seen = sink.seen;
    } else {
      ref_seen = sink.seen;
    }
  }
  ASSERT_EQ(burst_seen.size(), ref_seen.size());
  EXPECT_EQ(burst_seen, ref_seen);
  // The overlap must actually have produced collisions.
  int collisions = 0;
  for (Logic4 v : burst_seen) collisions += v == Logic4::kX;
  EXPECT_GT(collisions, 0);
}

TEST(BurstTransportTest, CrossFrequencyRunsStayBurst) {
  // Two transmitters on different RF channels never interact, so each
  // keeps its own run, noisy or not (each port draws its flips from its
  // own stream); a receiver on each frequency still sees exactly the
  // per-bit reference stream.
  for (double ber : {0.0, 1.0 / 30}) {
    SCOPED_TRACE("ber " + std::to_string(ber));
    std::vector<Logic4> seen[2][2];  // [mode][receiver]
    for (int mode = 0; mode < 2; ++mode) {
      Environment env(5);
      ChannelConfig cfg;
      cfg.ber = ber;
      NoisyChannel ch(env, "ch", cfg);
      if (mode == 1) ch.set_burst_transport_enabled(false);
      Radio a(env, "a", ch), b(env, "b", ch);
      Radio rx10(env, "rx10", ch), rx40(env, "rx40", ch);
      QuietSink sink[2];
      Radio* rx[2] = {&rx10, &rx40};
      for (int i = 0; i < 2; ++i) rx[i]->set_burst_rx_sink(&sink[i]);
      rx10.enable_rx(10);
      rx40.enable_rx(40);
      a.transmit(10, test::bits(
                         "10110011100010110100111010001101111000101101001011"));
      env.run(5_us);
      b.transmit(40, test::bits("1100101001"));
      if (mode == 0) {
        EXPECT_TRUE(ch.burst_active(a.port()));
        EXPECT_TRUE(ch.burst_active(b.port()));
      }
      env.run(100_us);
      rx10.disable_rx();
      rx40.disable_rx();
      if (mode == 0) {
        EXPECT_EQ(ch.burst_fallbacks(), 0u);
        EXPECT_EQ(ch.bits_burst(), 60u);
      }
      seen[mode][0] = sink[0].seen;
      seen[mode][1] = sink[1].seen;
      EXPECT_EQ(ch.bits_driven(), 60u);
      EXPECT_EQ(ch.collision_samples(), 0u);
      EXPECT_EQ(a.bits_sent(), 50u);
      EXPECT_EQ(b.bits_sent(), 10u);
    }
    for (int i = 0; i < 2; ++i) {
      ASSERT_FALSE(seen[1][i].empty());
      EXPECT_EQ(seen[0][i], seen[1][i]) << "receiver " << i;
    }
  }
}

TEST(BurstTransportTest, AbortMidRunStopsAtTheExactBit) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch);
  tx.transmit(3, BitVector(100, true));
  env.run(5_us);
  EXPECT_TRUE(tx.tx_busy());
  tx.abort_tx();
  EXPECT_FALSE(tx.tx_busy());
  EXPECT_EQ(ch.sense(3), Logic4::kZ);
  // Outside dispatch, the bit at exactly t=5us has fired: 6 bits on air
  // (matching the per-bit chain under run_until semantics).
  EXPECT_EQ(tx.bits_sent(), 6u);
  const auto sent = tx.bits_sent();
  env.run(10_us);
  EXPECT_EQ(tx.bits_sent(), sent);
}

TEST(BurstTransportTest, SetBerMidRunDegradesWithoutLosingBits) {
  Environment env(17);
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch);
  tx.transmit(3, BitVector(100, true));
  env.run(10_us);
  ch.set_ber(0.5);  // the rest of the packet flips under the new BER
  EXPECT_EQ(ch.burst_fallbacks(), 1u);
  env.run(200_us);
  EXPECT_EQ(tx.bits_sent(), 100u);
  EXPECT_EQ(ch.bits_driven(), 100u);
  EXPECT_GT(ch.bits_flipped(), 0u);  // noise applied to the tail
}

TEST(BurstTransportTest, EagerSinkGetsEverySampleAtItsExactInstant) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch), rx(env, "rx", ch);
  EagerSink sink;
  sink.env = &env;
  rx.set_burst_rx_sink(&sink);
  rx.enable_rx(2);
  tx.transmit(2, test::bits("110101"));
  env.run(10_us);
  ASSERT_GE(sink.seen.size(), 7u);
  // Samples at 0.25, 1.25, ... us; the first six carry the bits.
  const char* expect = "110101";
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(sink.at[static_cast<std::size_t>(i)],
              SimTime::ns(250 + 1000u * static_cast<unsigned>(i)));
    EXPECT_EQ(sink.seen[static_cast<std::size_t>(i)],
              from_bit(expect[i] == '1'));
  }
  EXPECT_EQ(sink.seen[6], Logic4::kZ);
}

TEST(BurstTransportTest, LazySampleCounterMatchesPerBitCounter) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio rx(env, "rx", ch);
  QuietSink sink;
  rx.set_burst_rx_sink(&sink);
  rx.enable_rx(0);
  env.run(10_us);
  EXPECT_EQ(rx.bits_sampled(), 10u);  // dormant, but the count is exact
  rx.disable_rx();
  env.run(10_us);
  EXPECT_EQ(rx.bits_sampled(), 10u);
  EXPECT_EQ(sink.seen.size(), 10u);
}

TEST(BurstTransportTest, BackToBackBurstsFromDoneCallback) {
  // The next run starts from a timer at the done instant. Each run's
  // end timer fires before that same-instant timer (it was scheduled
  // first), so the transmitter is free again when it fires.
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch);
  std::vector<SimTime> starts;
  std::function<void()> send_next = [&] {
    starts.push_back(env.now());
    tx.transmit(0, BitVector(10, true));
    if (starts.size() < 3) env.schedule(10_us, send_next);
  };
  send_next();
  env.run(100_us);
  EXPECT_EQ(starts, (std::vector<SimTime>{0_us, 10_us, 20_us}));
  EXPECT_EQ(tx.bits_sent(), 30u);
  EXPECT_EQ(ch.bits_burst(), 30u);
}

// ---- seeded differential contention: burst vs per-bit ----

/// What one receiver observed: every sample value, the bits it sliced
/// from collided samples, and the (index, instant) of its side-effect
/// samples.
struct RxLog {
  std::vector<Logic4> values;
  std::vector<bool> slices;
  std::vector<std::pair<std::size_t, SimTime>> marks;
  bool operator==(const RxLog&) const = default;
};

/// The per-sample behaviour shared by both transports, with side effects
/// like baseband::Receiver's: a collided sample draws the environment
/// RNG (the garbled-symbol slice; which receiver gets which bit shows
/// the order of same-instant samples), and every `period`-th sample
/// records its instant.
void record_sample(Environment& env, RxLog& log, std::size_t period,
                   Logic4 v) {
  if (v == Logic4::kX) log.slices.push_back(env.rng().bernoulli(0.5));
  log.values.push_back(v);
  if (log.values.size() % period == 0) {
    log.marks.emplace_back(log.values.size() - 1, env.now());
  }
}

/// Burst sink over record_sample(): only the marking samples are side
/// effects, so a lazy receiver wakes exactly there.
struct MarkingSink final : BurstRxSink {
  Environment* env = nullptr;
  RxLog* log = nullptr;
  std::size_t period = 1;
  std::size_t quiet_prefix(const AirPacket*, std::size_t,
                           std::size_t count) override {
    const std::size_t to_mark = period - 1 - log->values.size() % period;
    return to_mark < count ? to_mark : count;
  }
  void consume_quiet(const AirPacket* run, std::size_t first,
                     std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      log->values.push_back(run == nullptr ? Logic4::kZ
                                           : from_bit(run->bits()[first + i]));
    }
  }
  void on_sample(Logic4 v) override { record_sample(*env, *log, period, v); }
};

/// One randomised contention case: 2-4 radios, each transmitting packets
/// of 1-400 bits on frequencies from a set of 3 and receiving with
/// enables and retunes at random instants. Every instant lies on the
/// half-microsecond grid transmissions and slot timers use.
struct ContentionCase {
  struct Packet {
    std::size_t radio;
    SimTime at;
    int freq;
    BitVector bits;
  };
  struct RxEvent {
    std::size_t radio;
    SimTime at;
    int freq;  // -1: disable
  };
  double ber = 0.0;
  std::size_t radios = 0;
  std::vector<std::size_t> mark_period;
  std::vector<Packet> packets;
  std::vector<RxEvent> rx_events;
  SimTime horizon;
};

ContentionCase make_contention_case(std::uint64_t seed) {
  sim::Rng rng(seed);
  auto half_us = [&](std::uint64_t lo, std::uint64_t hi) {
    return SimTime::ns(500 * rng.uniform(2 * lo, 2 * hi));
  };
  ContentionCase c;
  c.ber = rng.uniform(0, 1) == 0 ? 0.0 : 1.0 / 50;
  c.radios = static_cast<std::size_t>(rng.uniform(2, 4));
  int freqs[3];
  for (int& f : freqs) f = static_cast<int>(rng.uniform(0, 78));
  auto pick_freq = [&] { return freqs[rng.uniform(0, 2)]; };
  c.horizon = SimTime::us(1200);
  for (std::size_t r = 0; r < c.radios; ++r) {
    c.mark_period.push_back(static_cast<std::size_t>(rng.uniform(7, 97)));
    for (SimTime t = half_us(0, 200); t < c.horizon;) {
      const std::size_t len = static_cast<std::size_t>(rng.uniform(1, 400));
      BitVector bits;
      bits.reserve(len);
      for (std::size_t i = 0; i < len; ++i) bits.push_back(rng.next() & 1u);
      c.packets.push_back({r, t, pick_freq(), std::move(bits)});
      // A gap of at least 1 us: the next transmit never shares an
      // instant with this packet's end.
      t += SimTime::us(len) + half_us(1, 150);
    }
    bool on = false;
    const auto events = rng.uniform(3, 8);
    for (std::uint64_t e = 0; e < events; ++e) {
      const bool disable = on && rng.uniform(0, 3) == 0;
      c.rx_events.push_back({r, half_us(0, 1199), disable ? -1 : pick_freq()});
      on = !disable;
    }
  }
  return c;
}

/// Everything a case must reproduce across transports.
struct ContentionOutcome {
  std::vector<RxLog> logs;
  std::vector<std::uint64_t> bits_sent;
  std::uint64_t bits_driven = 0;
  std::uint64_t bits_flipped = 0;
  std::uint64_t collision_samples = 0;
  std::array<std::uint64_t, 4> rng_state{};
  bool operator==(const ContentionOutcome&) const = default;
};

struct ContentionStats {
  std::uint64_t bits_burst = 0;
  std::uint64_t fallbacks = 0;
  int max_concurrent_runs = 0;
};

ContentionOutcome run_contention_case(const ContentionCase& c,
                                      std::uint64_t seed, bool burst,
                                      ContentionStats* stats) {
  Environment env(seed);
  ChannelConfig cfg;
  cfg.ber = c.ber;
  NoisyChannel ch(env, "ch", cfg);
  ch.set_burst_transport_enabled(burst);
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<MarkingSink> sinks(c.radios);
  ContentionOutcome out;
  out.logs.resize(c.radios);
  static const char* const kNames[] = {"r0", "r1", "r2", "r3"};
  for (std::size_t r = 0; r < c.radios; ++r) {
    radios.push_back(std::make_unique<Radio>(env, kNames[r], ch));
    RxLog* log = &out.logs[r];
    const std::size_t period = c.mark_period[r];
    sinks[r] = MarkingSink{};
    sinks[r].env = &env;
    sinks[r].log = log;
    sinks[r].period = period;
    radios[r]->set_burst_rx_sink(&sinks[r]);
  }
  auto count_runs = [&] {
    if (stats == nullptr) return;
    int live = 0;
    for (const auto& radio : radios) live += ch.burst_active(radio->port());
    if (live > stats->max_concurrent_runs) stats->max_concurrent_runs = live;
  };
  for (const auto& p : c.packets) {
    env.schedule(p.at, [&, p = &p] {
      radios[p->radio]->transmit(p->freq, p->bits);
      count_runs();
    });
  }
  for (const auto& e : c.rx_events) {
    env.schedule(e.at, [&, e = &e] {
      Radio& radio = *radios[e->radio];
      if (e->freq < 0) {
        radio.disable_rx();
      } else {
        radio.enable_rx(e->freq);  // retunes when already enabled
      }
      count_runs();
    });
  }
  env.run(c.horizon + SimTime::us(500));
  for (auto& radio : radios) {
    radio->disable_rx();  // materialise lazily pending samples
    out.bits_sent.push_back(radio->bits_sent());
  }
  out.bits_driven = ch.bits_driven();
  out.bits_flipped = ch.bits_flipped();
  out.collision_samples = ch.collision_samples();
  out.rng_state = env.rng().state();
  if (stats != nullptr) {
    stats->bits_burst += ch.bits_burst();
    stats->fallbacks += ch.burst_fallbacks();
  }
  return out;
}

TEST(BurstTransportTest, SeededContentionMatchesPerBitReference) {
  // 240 seeded cases, each run burst and per-bit: every receiver's
  // samples and marked instants, the channel counters and the final
  // root-stream state must agree. Clean and BER 1/50 cases alike keep
  // one run per frequency.
  ContentionStats stats;
  std::uint64_t collisions = 0;
  for (std::uint64_t k = 0; k < 240; ++k) {
    const std::uint64_t seed = 9000 + k;
    const ContentionCase c = make_contention_case(seed);
    const ContentionOutcome on = run_contention_case(c, seed, true, &stats);
    const ContentionOutcome off = run_contention_case(c, seed, false, nullptr);
    for (std::size_t r = 0; r < c.radios; ++r) {
      ASSERT_EQ(on.logs[r].values, off.logs[r].values)
          << "seed " << seed << " receiver " << r;
      ASSERT_EQ(on.logs[r].slices, off.logs[r].slices)
          << "seed " << seed << " receiver " << r;
      ASSERT_EQ(on.logs[r].marks, off.logs[r].marks)
          << "seed " << seed << " receiver " << r;
    }
    ASSERT_EQ(on, off) << "seed " << seed;
    collisions += on.collision_samples;
  }
  // The cases really exercised concurrent runs, fallbacks and
  // collisions.
  EXPECT_GE(stats.max_concurrent_runs, 2);
  EXPECT_GT(stats.bits_burst, 0u);
  EXPECT_GT(stats.fallbacks, 0u);
  EXPECT_GT(collisions, 0u);
}

// ---- checkpoint mid-way through concurrent runs ----

/// Two transmitters and two receivers, in checkpoint order: channel,
/// radios, then the kernel (rearm) last.
struct TwoLinks {
  Environment env{41};
  NoisyChannel ch{env, "ch"};
  Radio a{env, "a", ch}, b{env, "b", ch};
  Radio rx_a{env, "rx_a", ch}, rx_b{env, "rx_b", ch};
  QuietSink sink_a, sink_b;
  TwoLinks() {
    rx_a.set_burst_rx_sink(&sink_a);
    rx_b.set_burst_rx_sink(&sink_b);
  }
  std::vector<std::uint8_t> save() const {
    sim::SnapshotWriter w;
    ch.save_state(w);
    for (const Radio* r : {&a, &b, &rx_a, &rx_b}) r->save_state(w);
    env.save_state(w);
    return w.take();
  }
  void restore(const std::vector<std::uint8_t>& bytes) {
    sim::SnapshotReader r(bytes);
    ch.restore_state(r);
    for (Radio* radio : {&a, &b, &rx_a, &rx_b}) radio->restore_state(r);
    env.restore_state(r);
    ASSERT_TRUE(r.at_end());
  }
};

TEST(BurstTransportTest, CheckpointMidConcurrentRunsContinuesIdentically) {
  TwoLinks whole;
  whole.rx_a.enable_rx(12);
  whole.rx_b.enable_rx(70);
  whole.a.transmit(12, test::bits(
                           "1011001110001011010011101000110111100010110100"));
  whole.env.run(3_us);
  whole.b.transmit(70, test::bits("110010100111000101101"));
  whole.env.run(9_us);
  ASSERT_TRUE(whole.ch.burst_active(whole.a.port()));
  ASSERT_TRUE(whole.ch.burst_active(whole.b.port()));
  const auto snap = whole.save();
  const std::size_t seen_a = whole.sink_a.seen.size();
  const std::size_t seen_b = whole.sink_b.seen.size();

  TwoLinks resumed;
  resumed.restore(snap);
  EXPECT_TRUE(resumed.ch.burst_active(resumed.a.port()));
  EXPECT_TRUE(resumed.ch.burst_active(resumed.b.port()));
  // A restored image serializes back to the same bytes.
  EXPECT_EQ(resumed.save(), snap);

  whole.env.run(80_us);
  resumed.env.run(80_us);
  whole.rx_a.disable_rx();
  whole.rx_b.disable_rx();
  resumed.rx_a.disable_rx();
  resumed.rx_b.disable_rx();
  const std::vector<Logic4> tail_a(whole.sink_a.seen.begin() + seen_a,
                                   whole.sink_a.seen.end());
  const std::vector<Logic4> tail_b(whole.sink_b.seen.begin() + seen_b,
                                   whole.sink_b.seen.end());
  EXPECT_EQ(resumed.sink_a.seen, tail_a);
  EXPECT_EQ(resumed.sink_b.seen, tail_b);
  EXPECT_EQ(resumed.ch.bits_driven(), whole.ch.bits_driven());
  EXPECT_EQ(resumed.ch.bits_burst(), whole.ch.bits_burst());
  EXPECT_EQ(resumed.ch.burst_fallbacks(), 0u);
  EXPECT_EQ(resumed.a.bits_sent(), whole.a.bits_sent());
  EXPECT_EQ(resumed.b.bits_sent(), whole.b.bits_sent());
  EXPECT_EQ(resumed.env.rng().state(), whole.env.rng().state());
  EXPECT_FALSE(resumed.ch.busy());
}

TEST(BurstTransportTest, RestoreRefusesRunOnPortOutOfRange) {
  Environment env;
  NoisyChannel ch(env, "ch");
  Radio a(env, "a", ch), b(env, "b", ch);
  // A CHAN section in the current layout whose one run names port 7 of
  // a two-port channel.
  sim::SnapshotWriter w;
  w.begin_section(sim::snapshot_tag("CHAN"));
  w.f64(0.0);
  w.b(true);
  w.u32(2);  // two ports
  for (int port = 0; port < 2; ++port) {
    w.u32(static_cast<std::uint32_t>(-1));
    w.u8(static_cast<std::uint8_t>(Logic4::kZ));
    w.u32(static_cast<std::uint32_t>(-1));
    for (int i = 0; i < 5; ++i) w.u64(0);  // noise stream: rng + gap
  }
  w.u32(1);   // one run
  w.u32(7);   // port
  w.u32(10);  // freq
  w.time(SimTime::zero());
  w.time(SimTime::us(1));
  w.b(false);  // unmasked
  for (int i = 0; i < 5; ++i) w.u64(0);
  w.b(false);  // no bus trace
  w.end_section();
  const auto bytes = w.take();
  sim::SnapshotReader r(bytes);
  try {
    ch.restore_state(r);
    FAIL() << "restore accepted a run on port 7";
  } catch (const sim::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("run port out of range"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace btsc::phy
