// Differential harness for the batched error-mask noise path: the
// mask-batched transport (Rng::fill_error_mask + NoisyChannel masked
// runs) must reproduce the per-bit reference exactly -- same sample
// stream, same flip counts, same final RNG stream position -- for every
// packet geometry, BER, and mid-run perturbation (fallback, abort,
// foreign RNG draws, checkpoint/restore). This suite is the gate behind
// removing the "BER == 0" clause from the burst acceptance test.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/bitvector.hpp"
#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"
#include "sim/tracer.hpp"

namespace btsc::phy {
namespace {

using namespace btsc::sim::literals;
using btsc::sim::BitVector;
using btsc::sim::Environment;
using btsc::sim::Rng;
using btsc::sim::SimTime;

/// Air lengths of representative packets (ID, POLL, DH1, FHS, DH5) plus
/// word-boundary and tail cases for the mask's 64-bit chunking.
constexpr std::size_t kPacketLengths[] = {68,  126, 366, 494,  2871,
                                          1,   63,  64,  65,   127,
                                          128, 129, 255, 256};

constexpr double kBerGrid[] = {1e-5, 1e-3, 0.1, 0.5};

BitVector random_payload(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  BitVector v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) v.push_back((rng.next() & 1u) != 0);
  return v;
}

// ---- RNG layer: the fill must be draw-for-draw the per-bit order ----

TEST(NoiseMaskTest, FillMatchesPerBitDrawOrderAndFinalState) {
  // The grid, the edges of the fill's integer threshold ceil(p * 2^53):
  // p * 2^53 an exact integer, the largest BERs below 1 and 0.5, and
  // BERs whose threshold is 1 -- then seeded random BERs, uniform and
  // log-uniform down to 1e-12.
  std::vector<double> bers(std::begin(kBerGrid), std::end(kBerGrid));
  for (double edge : {0.25, std::nextafter(1.0, 0.0),
                      std::nextafter(0.5, 0.0), 0x1.0p-60, 1e-300}) {
    bers.push_back(edge);
  }
  Rng pick(2019);
  for (int i = 0; i < 32; ++i) {
    bers.push_back(i % 2 == 0 ? pick.uniform01()
                              : std::pow(10.0, -12.0 * pick.uniform01()));
  }
  for (double ber : bers) {
    for (std::size_t n : kPacketLengths) {
      Rng filled(42), stepped(42);
      std::vector<std::uint64_t> words((n + 63) / 64, ~0ull);
      filled.fill_error_mask(words.data(), n, ber);
      for (std::size_t i = 0; i < n; ++i) {
        const bool flip = stepped.bernoulli(ber);
        ASSERT_EQ(((words[i / 64] >> (i % 64)) & 1u) != 0, flip)
            << "ber " << ber << " len " << n << " bit " << i;
      }
      // Same stream position either way: this is what lets a burst run
      // pre-draw its noise and stay seed-compatible with per-bit.
      EXPECT_EQ(filled.state(), stepped.state()) << "ber " << ber << " len "
                                                 << n;
      // Tail bits of the last word must be cleared (BitVector invariant).
      if (n % 64 != 0) {
        EXPECT_EQ(words.back() >> (n % 64), 0u) << "len " << n;
      }
    }
  }
}

/// A generator whose next raw draw is `value`: the xoshiro256** output
/// rotl(s[1] * 5, 7) * 9 depends on s[1] alone, and 5 and 9 are odd, so
/// s[1] follows from the inverses mod 2^64.
Rng rng_drawing(std::uint64_t value) {
  auto inverse = [](std::uint64_t a) {
    std::uint64_t x = a;  // Newton: correct to 3, 6, 12, ... bits
    for (int i = 0; i < 5; ++i) x *= 2 - a * x;
    return x;
  };
  const std::uint64_t s1 = std::rotr(value * inverse(9), 7) * inverse(5);
  Rng rng;
  rng.set_state({0x243F6A8885A308D3ull, s1, 0x13198A2E03707344ull,
                 0xA4093822299F31D0ull});
  return rng;
}

TEST(NoiseMaskTest, FillMatchesBernoulliAtThresholdBoundary) {
  // Random draws almost never land next to the threshold, so draw the
  // 53-bit values x = t - 1, t, t + 1 around t = ceil(p * 2^53) on
  // purpose, with the 11 discarded low bits clear and set.
  for (double ber : {0.25, std::nextafter(1.0, 0.0), std::nextafter(0.5, 0.0),
                     0x1.0p-60, 1e-300, 1e-5, 0.1, 1.0 / 60}) {
    const auto t = static_cast<std::uint64_t>(std::ceil(ber * 0x1.0p53));
    for (std::uint64_t x : {t - 1, t, t + 1}) {
      if (x >= (1ull << 53)) continue;
      for (std::uint64_t low : {0x000ull, 0x7FFull}) {
        const std::uint64_t draw = x << 11 | low;
        Rng filled = rng_drawing(draw);
        Rng stepped = rng_drawing(draw);
        ASSERT_EQ(Rng(filled).next(), draw);
        std::uint64_t word = 0;
        filled.fill_error_mask(&word, 1, ber);
        EXPECT_EQ(word != 0, stepped.bernoulli(ber))
            << "ber " << ber << " x " << x;
        EXPECT_EQ(filled.state(), stepped.state());
      }
    }
  }
}

TEST(NoiseMaskTest, ShortcutBersConsumeNoDraws) {
  for (double ber : {0.0, -0.25, 1.0, 1.5}) {
    Rng rng(7);
    const auto before = rng.state();
    std::vector<std::uint64_t> words(3, 0xDEADBEEFDEADBEEFull);
    rng.fill_error_mask(words.data(), 130, ber);
    EXPECT_EQ(rng.state(), before) << "ber " << ber;
    const std::uint64_t expect = ber >= 1.0 ? ~0ull : 0ull;
    EXPECT_EQ(words[0], expect);
    EXPECT_EQ(words[1], expect);
    EXPECT_EQ(words[2], expect & 0x3ull);  // 130 % 64 == 2 tail bits
    EXPECT_EQ(Rng::bernoulli_draws_per_bit(ber), 0u);
  }
  EXPECT_EQ(Rng::bernoulli_draws_per_bit(0.5), 1u);
}

TEST(NoiseMaskTest, DiscardMatchesDrawnPrefix) {
  Rng a(99), b(99);
  for (int i = 0; i < 1000; ++i) (void)a.next();
  b.discard(1000);
  EXPECT_EQ(a.state(), b.state());
}

// ---- channel layer: masked bursts vs the per-bit reference ----

/// Burst sink that accepts everything as quiet (no per-sample barrier);
/// expands bulk runs back into a per-sample stream for comparison.
struct QuietSink final : BurstRxSink {
  std::vector<Logic4> seen;
  std::size_t quiet_prefix(const sim::BitVector*, std::size_t,
                           std::size_t count) const override {
    return count;
  }
  void consume_quiet(const sim::BitVector* bits, std::size_t first,
                     std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      seen.push_back(bits == nullptr ? Logic4::kZ
                                     : from_bit((*bits)[first + i]));
    }
  }
  void on_sample(Logic4 v) override { seen.push_back(v); }
};

struct SideResult {
  std::vector<Logic4> seen;
  std::array<std::uint64_t, 4> rng_state{};
  std::uint64_t bits_flipped = 0;
  std::uint64_t bits_driven = 0;
  std::uint64_t bits_burst = 0;
  std::uint64_t fallbacks = 0;
};

/// Runs `script(env, ch, tx, tx2, rx)` once with burst transport on and
/// once forced per-bit, and requires identical samples, flip counts and
/// final RNG state. Returns the burst-side result for extra assertions.
template <typename Script>
SideResult expect_noise_equivalence(ChannelConfig cfg, Script script,
                                    std::uint64_t seed = 11) {
  SideResult sides[2];
  for (int pass = 0; pass < 2; ++pass) {
    Environment env(seed);
    NoisyChannel ch(env, "ch", cfg);
    if (pass == 1) ch.set_burst_transport_enabled(false);
    Radio tx(env, "tx", ch), tx2(env, "tx2", ch), rx(env, "rx", ch);
    QuietSink sink;
    rx.set_burst_rx_sink(&sink);
    script(env, ch, tx, tx2, rx);
    sides[pass].seen = sink.seen;
    sides[pass].rng_state = env.rng().state();
    sides[pass].bits_flipped = ch.bits_flipped();
    sides[pass].bits_driven = ch.bits_driven();
    sides[pass].bits_burst = ch.bits_burst();
    sides[pass].fallbacks = ch.burst_fallbacks();
  }
  const SideResult& burst = sides[0];
  const SideResult& ref = sides[1];
  EXPECT_EQ(burst.seen.size(), ref.seen.size());
  for (std::size_t i = 0; i < burst.seen.size() && i < ref.seen.size(); ++i) {
    if (burst.seen[i] != ref.seen[i]) {
      ADD_FAILURE() << "sample " << i << " diverged: burst "
                    << to_char(burst.seen[i]) << " vs per-bit "
                    << to_char(ref.seen[i]);
      break;
    }
  }
  EXPECT_EQ(burst.rng_state, ref.rng_state) << "RNG stream position diverged";
  EXPECT_EQ(burst.bits_flipped, ref.bits_flipped);
  EXPECT_EQ(burst.bits_driven, ref.bits_driven);
  EXPECT_EQ(ref.bits_burst, 0u);
  return burst;
}

TEST(NoiseMaskTest, NoisyPacketsMatchPerBitAcrossLengthsAndBers) {
  for (double ber : kBerGrid) {
    for (std::size_t n : kPacketLengths) {
      ChannelConfig cfg;
      cfg.ber = ber;
      const SimTime window = SimTime::us(n + 10);
      const SideResult burst = expect_noise_equivalence(
          cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio&,
                   Radio& rx) {
            rx.enable_rx(7);
            env.run(3_us);
            tx.transmit(7, random_payload(n, 1000 + n));
            env.run(window);
            rx.disable_rx();
          });
      EXPECT_EQ(burst.bits_burst, n) << "ber " << ber << " len " << n;
      EXPECT_EQ(burst.fallbacks, 0u) << "ber " << ber << " len " << n;
    }
  }
}

TEST(NoiseMaskTest, ExtremeBersBurstWithoutDraws) {
  for (double ber : {0.0, 1.0}) {
    ChannelConfig cfg;
    cfg.ber = ber;
    const SideResult burst = expect_noise_equivalence(
        cfg,
        [&](Environment& env, NoisyChannel&, Radio& tx, Radio&, Radio& rx) {
          rx.enable_rx(3);
          tx.transmit(3, random_payload(130, 5));
          env.run(200_us);
          rx.disable_rx();
        });
    EXPECT_EQ(burst.bits_burst, 130u);
    EXPECT_EQ(burst.bits_flipped, ber >= 1.0 ? 130u : 0u);
  }
}

TEST(NoiseMaskTest, ForeignDrawMidRunRewindsAndFallsBack) {
  // An unrelated consumer of the environment RNG fires in the middle of
  // a masked run: the upfront fill must rewind to the per-bit draw
  // position (the foreign draw then sees the stream exactly where the
  // reference path would put it) and the rest of the packet degrades to
  // per-bit. One fallback, identical samples, identical stream.
  bool drew_burst = false, drew_ref = false;
  bool* drew = &drew_burst;
  ChannelConfig cfg;
  cfg.ber = 0.01;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio&, Radio& rx) {
        rx.enable_rx(7);
        tx.transmit(7, random_payload(400, 77));
        env.schedule(150_us + SimTime::ns(500),
                     [&env, drew] { *drew = env.draw_bernoulli(0.25); });
        env.run(500_us);
        rx.disable_rx();
        drew = &drew_ref;
      });
  EXPECT_EQ(burst.fallbacks, 1u);
  EXPECT_LT(burst.bits_burst, 400u);  // only the elapsed prefix was batched
  EXPECT_GT(burst.bits_burst, 0u);
  EXPECT_EQ(drew_burst, drew_ref) << "foreign draw saw a diverged stream";
}

TEST(NoiseMaskTest, ForeignDrawAfterLastBitSyncsWithoutFallback) {
  // The draw lands after the run's last bit instant but before its
  // finish barrier: the fill already consumed exactly the per-bit draw
  // count, so the run must stand down in place -- no rewind, no
  // fallback, still batched end to end.
  ChannelConfig cfg;
  cfg.ber = 0.05;
  const std::size_t n = 200;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio&, Radio& rx) {
        rx.enable_rx(7);
        tx.transmit(7, random_payload(n, 9));
        // Last bit instant: (n-1) us; finish barrier: n us.
        env.schedule(SimTime::us(n - 1) + SimTime::ns(500),
                     [&env] { (void)env.draw_uniform(0, 1023); });
        env.run(SimTime::us(n + 20));
        rx.disable_rx();
      });
  EXPECT_EQ(burst.fallbacks, 0u);
  EXPECT_EQ(burst.bits_burst, n);
}

TEST(NoiseMaskTest, ContentionMidMaskedRunMatchesPerBit) {
  // A second transmitter breaks the sole-transmitter premise mid-run:
  // the masked run rewinds, falls back, and from there both noisy
  // per-bit streams interleave their draws exactly as the reference.
  ChannelConfig cfg;
  cfg.ber = 0.02;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio& tx2,
               Radio& rx) {
        rx.enable_rx(7);
        tx.transmit(7, random_payload(300, 21));
        env.schedule(100_us, [&] { tx2.transmit(7, random_payload(80, 22)); });
        env.run(500_us);
        rx.disable_rx();
      });
  EXPECT_EQ(burst.fallbacks, 1u);
}

TEST(NoiseMaskTest, SetBerMidMaskedRunMatchesPerBit) {
  ChannelConfig cfg;
  cfg.ber = 0.1;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel& ch, Radio& tx, Radio&,
               Radio& rx) {
        rx.enable_rx(5);
        tx.transmit(5, random_payload(256, 31));
        env.schedule(90_us + SimTime::ns(500), [&ch] { ch.set_ber(0.4); });
        env.run(400_us);
        rx.disable_rx();
      });
  EXPECT_EQ(burst.fallbacks, 1u);
}

TEST(NoiseMaskTest, AbortMidMaskedRunMatchesPerBit) {
  ChannelConfig cfg;
  cfg.ber = 0.05;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio&, Radio& rx) {
        rx.enable_rx(5);
        tx.transmit(5, random_payload(256, 41));
        env.schedule(77_us + SimTime::ns(500), [&tx] { tx.abort_tx(); });
        env.run(400_us);
        rx.disable_rx();
      });
  // Only the elapsed prefix went out; no fallback (abort settles the
  // run directly) and the stream rewound to the per-bit position.
  EXPECT_EQ(burst.fallbacks, 0u);
  EXPECT_LT(burst.bits_driven, 256u);
}

TEST(NoiseMaskTest, FlippedBitsCounterIsLazyDuringRun) {
  // Mid-run, bits_flipped() must report only the elapsed prefix of the
  // mask -- exactly what the per-bit reference would have counted.
  std::uint64_t mid_flips[2] = {0, 0};
  for (int pass = 0; pass < 2; ++pass) {
    Environment env(13);
    ChannelConfig cfg;
    cfg.ber = 0.3;
    NoisyChannel ch(env, "ch", cfg);
    if (pass == 1) ch.set_burst_transport_enabled(false);
    Radio tx(env, "tx", ch);
    tx.transmit(2, random_payload(200, 55));
    std::uint64_t& probe = mid_flips[pass];
    env.schedule(100_us + SimTime::ns(500),
                 [&ch, &probe] { probe = ch.bits_flipped(); });
    env.run(300_us);
  }
  EXPECT_EQ(mid_flips[0], mid_flips[1]);
  // 101 bits elapsed at the probe instant; at BER 0.3 some flips are
  // all but certain -- the lazy counter must not report zero.
  EXPECT_GT(mid_flips[0], 0u);
}

TEST(NoiseMaskTest, RecordingTracerKeepsPerBitSemantics) {
  // A tracer without backfill support must force the per-bit path (the
  // existing unit-test semantics of RecordingTracer stay intact).
  Environment env(3);
  sim::RecordingTracer tracer(env);
  env.set_tracer(&tracer);
  NoisyChannel ch(env, "ch");
  Radio tx(env, "tx", ch);
  tx.transmit(1, random_payload(50, 8));
  env.run(100_us);
  EXPECT_EQ(ch.bits_burst(), 0u);
  EXPECT_EQ(ch.bits_driven(), 50u);
  env.set_tracer(nullptr);
}

// ---- traced backfill: VCD bytes vs the per-bit reference ----

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs `script` against a VCD tracer with burst on/off and returns the
/// two files' contents for byte comparison.
template <typename Script>
std::pair<std::string, std::string> traced_pair(ChannelConfig cfg,
                                                Script script) {
  std::string out[2];
  for (int pass = 0; pass < 2; ++pass) {
    // Unique per process: ctest runs each traced TEST() as its own
    // process, in parallel, and they must not clobber each other's VCDs.
    const std::string path = ::testing::TempDir() + "btsc_noise_mask_" +
                             std::to_string(::getpid()) + "_" +
                             std::to_string(pass) + ".vcd";
    {
      Environment env(17);
      sim::VcdTracer tracer(env, path);
      env.set_tracer(&tracer);
      NoisyChannel ch(env, "ch", cfg);
      if (pass == 1) ch.set_burst_transport_enabled(false);
      Radio tx(env, "tx", ch), rx(env, "rx", ch);
      script(env, ch, tx, rx, tracer);
      env.set_tracer(nullptr);
    }
    out[pass] = slurp(path);
    std::remove(path.c_str());
  }
  return {out[0], out[1]};
}

TEST(NoiseMaskTest, TracedNoisyBurstVcdByteIdenticalToPerBit) {
  ChannelConfig cfg;
  cfg.ber = 0.02;
  auto [burst, ref] = traced_pair(
      cfg, [&](Environment& env, NoisyChannel& ch, Radio& tx, Radio& rx,
               sim::VcdTracer& tracer) {
        rx.enable_rx(7);
        env.run(5_us);
        tx.transmit(7, random_payload(300, 71));
        env.run(400_us);
        if (ch.burst_transport_enabled()) {
          EXPECT_EQ(ch.bits_burst(), 300u) << "traced run was not batched";
        }
        ch.flush_trace_backfill();
        tracer.close();
      });
  EXPECT_FALSE(burst.empty());
  EXPECT_EQ(burst, ref);
}

TEST(NoiseMaskTest, TracerClosedMidRunBackfillsTheElapsedTail) {
  // finish_trace()-style shutdown while a traced run is still on the
  // air: the elapsed prefix must be materialised before the file
  // closes, making it byte-identical to a per-bit run cut at the same
  // instant.
  ChannelConfig cfg;
  cfg.ber = 0.05;
  auto [burst, ref] = traced_pair(
      cfg, [&](Environment& env, NoisyChannel& ch, Radio& tx, Radio& rx,
               sim::VcdTracer& tracer) {
        rx.enable_rx(4);
        tx.transmit(4, random_payload(500, 81));
        env.run(200_us);  // run still active (500-bit packet)
        ch.flush_trace_backfill();
        tracer.close();
      });
  EXPECT_FALSE(burst.empty());
  EXPECT_EQ(burst, ref);
}

TEST(NoiseMaskTest, TracedFallbackVcdByteIdenticalToPerBit) {
  ChannelConfig cfg;
  cfg.ber = 0.03;
  auto [burst, ref] = traced_pair(
      cfg, [&](Environment& env, NoisyChannel& ch, Radio& tx, Radio& rx,
               sim::VcdTracer& tracer) {
        rx.enable_rx(7);
        tx.transmit(7, random_payload(300, 91));
        // Degrade the traced run mid-flight (BER change): the backfill
        // covers the batched prefix, per-bit tracing the rest.
        env.schedule(100_us + SimTime::ns(500), [&ch] { ch.set_ber(0.2); });
        env.run(400_us);
        ch.flush_trace_backfill();
        tracer.close();
      });
  EXPECT_FALSE(burst.empty());
  EXPECT_EQ(burst, ref);
}

// ---- burst barrier timer vs idle()/stats, checkpoint mid-burst ----

/// Minimal phy-level orchestration mirroring BluetoothSystem's
/// checkpoint order: channel, radios, then kernel (rearm) last.
std::vector<std::uint8_t> save_phy(Environment& env, NoisyChannel& ch,
                                   Radio& tx, Radio& rx) {
  sim::SnapshotWriter w;
  ch.save_state(w);
  tx.save_state(w);
  rx.save_state(w);
  env.save_state(w);
  return w.take();
}

void restore_phy(const std::vector<std::uint8_t>& bytes, Environment& env,
                 NoisyChannel& ch, Radio& tx, Radio& rx) {
  sim::SnapshotReader r(bytes);
  ch.restore_state(r);
  tx.restore_state(r);
  rx.restore_state(r);
  env.restore_state(r);
  ASSERT_TRUE(r.at_end());
}

TEST(NoiseMaskTest, BurstBarrierTimerKeepsKernelBusyAndSurvivesCheckpoint) {
  ChannelConfig cfg;
  cfg.ber = 0.01;
  const std::size_t n = 400;

  Environment env(23);
  NoisyChannel ch(env, "ch", cfg);
  Radio tx(env, "tx", ch), rx(env, "rx", ch);
  QuietSink sink;
  rx.set_burst_rx_sink(&sink);
  rx.enable_rx(7);
  tx.transmit(7, random_payload(n, 61));
  env.run(150_us);

  // Mid-burst: the finish-barrier timer must be visible to the kernel.
  // idle() returning true here would let Environment::idle()-driven
  // loops stop with a packet still on the air.
  ASSERT_TRUE(ch.burst_active(tx.port()));
  EXPECT_FALSE(env.idle());
  const auto stats = env.scheduler_stats();
  EXPECT_GE(stats.live, 1u);

  const auto snap = save_phy(env, ch, tx, rx);

  // Twin: same construction path, restore mid-burst, run both to the
  // end. The twin's masked run is rebuilt from the saved pre-fill RNG
  // state, so its remaining samples must equal the original's.
  Environment env2(23);
  NoisyChannel ch2(env2, "ch", cfg);
  Radio tx2(env2, "tx", ch2), rx2(env2, "rx", ch2);
  QuietSink sink2;
  rx2.set_burst_rx_sink(&sink2);
  restore_phy(snap, env2, ch2, tx2, rx2);
  ASSERT_TRUE(ch2.burst_active(tx2.port()));
  EXPECT_FALSE(env2.idle());

  const std::size_t already = sink.seen.size();
  env.run(SimTime::us(n));
  env2.run(SimTime::us(n));
  ASSERT_EQ(sink.seen.size() - already, sink2.seen.size());
  for (std::size_t i = 0; i < sink2.seen.size(); ++i) {
    ASSERT_EQ(sink.seen[already + i], sink2.seen[i]) << "post-restore sample "
                                                     << i;
  }
  EXPECT_EQ(env.rng().state(), env2.rng().state());
  EXPECT_EQ(ch.bits_flipped(), ch2.bits_flipped());
  EXPECT_EQ(ch.bits_burst(), ch2.bits_burst());
  EXPECT_TRUE(env.idle());
  EXPECT_TRUE(env2.idle());

  // Round-trip golden: the restored twin must serialize byte-equal.
  Environment env3(23);
  NoisyChannel ch3(env3, "ch", cfg);
  Radio tx3(env3, "tx", ch3), rx3(env3, "rx", ch3);
  restore_phy(snap, env3, ch3, tx3, rx3);
  EXPECT_EQ(save_phy(env3, ch3, tx3, rx3), snap);
}

TEST(NoiseMaskTest, TracedRunRefusesCheckpoint) {
  const std::string path = ::testing::TempDir() + "btsc_noise_mask_ckpt.vcd";
  {
    Environment env(29);
    sim::VcdTracer tracer(env, path);
    env.set_tracer(&tracer);
    ChannelConfig cfg;
    cfg.ber = 0.01;
    NoisyChannel ch(env, "ch", cfg);
    Radio tx(env, "tx", ch), rx(env, "rx", ch);
    tx.transmit(7, random_payload(300, 3));
    env.run(100_us);
    ASSERT_TRUE(ch.burst_active(tx.port()));
    sim::SnapshotWriter w;
    EXPECT_THROW(ch.save_state(w), sim::SnapshotError);
    ch.flush_trace_backfill();
    tracer.close();
    env.set_tracer(nullptr);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace btsc::phy
