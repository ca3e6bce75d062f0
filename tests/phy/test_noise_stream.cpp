// Differential harness for per-port noise streams: the gap sampler must
// draw Geometric(BER) gaps, a port's burst copy must flip exactly the
// bits its per-bit drives would, and the batched transport must
// reproduce the per-bit reference -- same sample stream, same flip
// counts, same stream positions -- for every packet geometry, BER, and
// mid-run perturbation (fallback at any bit, abort, foreign RNG draws,
// reseed, checkpoint/restore). A traced channel never batches.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "phy/channel.hpp"
#include "phy/noise.hpp"
#include "phy/radio.hpp"
#include "sim/bitvector.hpp"
#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"
#include "sim/tracer.hpp"
#include "support/flip_rate_reference.hpp"
#include "support/quiet_sink.hpp"
#include "support/recording_tracer.hpp"

namespace btsc::phy {
namespace {

using namespace btsc::sim::literals;
using btsc::sim::BitVector;
using btsc::sim::Environment;
using btsc::sim::Rng;
using btsc::sim::SimTime;
using btsc::test::QuietSink;

/// Air lengths of representative packets (ID, POLL, DH1, FHS, DH5) plus
/// word-boundary and tail cases for the flipped view's 64-bit words.
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

// ---- gap sampler: Geometric(BER) gaps, burst == per-bit by construction ----

/// Wilson-Hilferty upper quantile of chi-square with `df` degrees of
/// freedom at standard-normal deviate `z`.
double chi2_quantile(double df, double z) {
  const double c = 2.0 / (9.0 * df);
  return df * std::pow(1.0 - c + z * std::sqrt(c), 3.0);
}

TEST(NoiseMaskTest, GapsFollowGeometricAtEachBer) {
  // Chi-square goodness of fit of 200k gaps per BER against
  // Geometric(p), over ~40 bins of equal probability (edges at the
  // quantiles k with P(G >= k) = q^k), at p-value 1e-4.
  for (double ber : {1.0 / 30, 1.0 / 100, 1.0 / 1000, 1.0 / 5000}) {
    const FlipRate rate(ber);
    const double q = 1.0 - ber;
    std::vector<std::uint64_t> edges{0};
    for (int j = 1; j < 40; ++j) {
      const auto e = static_cast<std::uint64_t>(
          std::ceil(std::log(1.0 - j / 40.0) / std::log(q)));
      if (e > edges.back()) edges.push_back(e);
    }
    std::vector<double> counts(edges.size(), 0.0);
    Rng rng(20261018);
    constexpr int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) {
      const std::uint64_t g = rate.draw_gap(rng);
      const auto bin = std::upper_bound(edges.begin(), edges.end(), g) -
                       edges.begin() - 1;
      counts[static_cast<std::size_t>(bin)] += 1.0;
    }
    double chi2 = 0.0;
    for (std::size_t b = 0; b < edges.size(); ++b) {
      const double lo = std::pow(q, static_cast<double>(edges[b]));
      const double hi = b + 1 < edges.size()
                            ? std::pow(q, static_cast<double>(edges[b + 1]))
                            : 0.0;
      const double expect = kDraws * (lo - hi);
      chi2 += (counts[b] - expect) * (counts[b] - expect) / expect;
    }
    const double df = static_cast<double>(edges.size() - 1);
    EXPECT_LT(chi2, chi2_quantile(df, 3.719)) << "ber " << ber << " df " << df;
  }
}

TEST(NoiseMaskTest, MeanFlipRateMatchesBer) {
  // 10^8 bits per BER through advance(), which costs O(flips): the flip
  // count stays within 5 standard deviations of n * p.
  constexpr std::uint64_t kBits = 100000000;
  for (double ber : {1.0 / 30, 1.0 / 100, 1.0 / 1000, 1.0 / 5000}) {
    const FlipRate rate(ber);
    NoiseStream s;
    s.reseed(77, rate);
    std::uint64_t flips = 0;
    for (std::uint64_t done = 0; done < kBits; done += 1000000) {
      flips += s.advance(1000000, nullptr, rate);
    }
    const double mean = kBits * ber;
    const double sd = std::sqrt(kBits * ber * (1.0 - ber));
    EXPECT_NEAR(static_cast<double>(flips), mean, 5.0 * sd) << "ber " << ber;
  }
}

TEST(NoiseMaskTest, FillMatchesPerBitDrawOrderAndFinalState) {
  // One port's stream as a burst copy of n bits and as n per-bit flips,
  // for every n in 1..3000, back to back so each packet starts from the
  // previous one's leftover gap: same flipped bits, same flip count,
  // same final stream.
  for (double ber : {1.0 / 30, 1.0 / 5000, 0.5}) {
    const FlipRate rate(ber);
    NoiseStream burst, per_bit;
    burst.reseed(42, rate);
    per_bit.reseed(42, rate);
    std::vector<std::uint32_t> positions;
    for (std::size_t n = 1; n <= 3000; ++n) {
      positions.clear();
      const std::uint64_t flips = burst.advance(n, &positions, rate);
      ASSERT_EQ(positions.size(), flips) << "ber " << ber << " len " << n;
      std::size_t next = 0;  // next recorded flip position
      for (std::size_t i = 0; i < n; ++i) {
        const bool flip = per_bit.flip(rate);
        const bool recorded = next < positions.size() && positions[next] == i;
        next += recorded;
        ASSERT_EQ(recorded, flip)
            << "ber " << ber << " len " << n << " bit " << i;
      }
      // Every position is inside the packet, ascending, once.
      ASSERT_EQ(next, positions.size()) << "ber " << ber << " len " << n;
      ASSERT_TRUE(burst == per_bit) << "ber " << ber << " len " << n;
    }
  }
}

TEST(NoiseMaskTest, ShortcutBersConsumeNoDraws) {
  // BER <= 0 never flips and BER >= 1 flips every bit; neither draws.
  for (double ber : {0.0, -0.25, 1.0, 1.5}) {
    const FlipRate rate(ber);
    NoiseStream s;
    s.reseed(7, rate);
    const NoiseStream before = s;
    std::vector<std::uint32_t> positions;
    const std::uint64_t flips = s.advance(130, &positions, rate);
    std::vector<std::uint32_t> expect;
    for (std::uint32_t i = 0; ber >= 1.0 && i < 130; ++i) expect.push_back(i);
    EXPECT_EQ(positions, expect);
    EXPECT_EQ(flips, ber >= 1.0 ? 130u : 0u);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(s.flip(rate), ber >= 1.0);
    s.redraw(rate);
    EXPECT_TRUE(s == before) << "ber " << ber << " consumed a draw";
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

TEST(NoiseMaskTest, GeometricAtExtremeDraws) {
  // The largest draw maps to u = 1, a gap of 0; the smallest to
  // u = 2^-53 and the longest gap g, the largest with u <= q^g -- also
  // at a BER whose 1 - BER rounds most of it away. A vanishing BER
  // saturates instead of wrapping.
  for (double ber : {1.0 / 30, 1.0 / 5000, 0.5, 1e-12}) {
    const FlipRate rate(ber);
    Rng top = rng_drawing(~0ull);
    EXPECT_EQ(rate.draw_gap(top), 0u) << "ber " << ber;
    Rng bottom = rng_drawing(0);
    const auto g = static_cast<double>(rate.draw_gap(bottom));
    auto survival = [&](double k) { return std::exp(k * std::log1p(-ber)); };
    EXPECT_GE(survival(g), 0x1.0p-53 * (1 - 1e-9)) << "ber " << ber;
    EXPECT_LT(survival(g + 1), 0x1.0p-53 * (1 + 1e-9)) << "ber " << ber;
  }
  Rng bottom = rng_drawing(0);
  EXPECT_EQ(FlipRate(1e-300).draw_gap(bottom), FlipRate::kNever);
}

TEST(NoiseMaskTest, TwoPhaseGapSearchMatchesTheReferenceLoop) {
  // Counting the levels u passes gives the top set bit; the multiply
  // chain below it must then set the same bits as the one-phase loop,
  // gap for gap: at every table entry, its neighbours, the extreme
  // draws 2^-53 and 1, and random draws.
  for (double ber : {1.0 / 30, 1.0 / 100, 1.0 / 200, 1.0 / 1000,
                     1.0 / 5000, 1e-6, 1e-12, 1e-300, 0.25, 0.5, 0.9}) {
    const FlipRate rate(ber);
    std::vector<double> us = {0x1.0p-53, 1.0};
    for (const double q : rate.survival_table()) {
      for (const double u : {q, std::nextafter(q, 0.0),
                             std::nextafter(q, 2.0)}) {
        if (u >= 0x1.0p-53 && u <= 1.0) us.push_back(u);
      }
    }
    Rng rng(ber < 1e-100 ? 1 : static_cast<std::uint64_t>(1.0 / ber));
    for (int i = 0; i < 20000; ++i) {
      us.push_back(static_cast<double>((rng.next() >> 11) + 1) * 0x1.0p-53);
    }
    for (const double u : us) {
      ASSERT_EQ(rate.gap_at(u), test::gap_reference(rate, u))
          << "ber " << ber << " u " << u;
    }
  }
}

// ---- channel layer: noisy bursts vs the per-bit reference ----

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
/// final root-stream state. Returns the burst-side result for extra
/// assertions.
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

TEST(NoiseMaskTest, ForeignDrawMidRunKeepsTheRunBatched) {
  // An unrelated consumer of the environment's root stream draws in the
  // middle of a noisy run. The run's flips come from the port's own
  // stream, so the draw neither sees nor disturbs them: no fallback, the
  // whole packet batched, and the draw sees the per-bit reference's
  // value.
  bool drew_burst = false, drew_ref = false;
  bool* drew = &drew_burst;
  ChannelConfig cfg;
  cfg.ber = 0.01;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio&, Radio& rx) {
        rx.enable_rx(7);
        tx.transmit(7, random_payload(400, 77));
        env.schedule(150_us + SimTime::ns(500),
                     [&env, drew] { *drew = env.rng().bernoulli(0.25); });
        env.run(500_us);
        rx.disable_rx();
        drew = &drew_ref;
      });
  EXPECT_EQ(burst.fallbacks, 0u);
  EXPECT_EQ(burst.bits_burst, 400u);
  EXPECT_EQ(drew_burst, drew_ref) << "foreign draw saw a diverged stream";
}

TEST(NoiseMaskTest, ForeignDrawAfterLastBitSyncsWithoutFallback) {
  // The draw lands after the run's last bit instant but before its
  // finish barrier: nothing to reconcile, the run ends batched end to
  // end with the reference's stream positions.
  ChannelConfig cfg;
  cfg.ber = 0.05;
  const std::size_t n = 200;
  const SideResult burst = expect_noise_equivalence(
      cfg, [&](Environment& env, NoisyChannel&, Radio& tx, Radio&, Radio& rx) {
        rx.enable_rx(7);
        tx.transmit(7, random_payload(n, 9));
        // Last bit instant: (n-1) us; finish barrier: n us.
        env.schedule(SimTime::us(n - 1) + SimTime::ns(500),
                     [&env] { (void)env.rng().uniform(0, 1023); });
        env.run(SimTime::us(n + 20));
        rx.disable_rx();
      });
  EXPECT_EQ(burst.fallbacks, 0u);
  EXPECT_EQ(burst.bits_burst, n);
}

TEST(NoiseMaskTest, FallbackAtEveryBitContinuesTheSameFlips) {
  // A 68-bit ID and a 366-bit DH1-sized packet degrade to per-bit after
  // exactly k bits, for every k: the port's stream rewinds to the run's
  // base, replays k bits, and the per-bit remainder flips exactly the
  // bits the reference flips.
  ChannelConfig cfg;
  cfg.ber = 1.0 / 30;
  for (std::size_t n : {std::size_t{68}, std::size_t{366}}) {
    for (std::size_t k = 1; k <= n; ++k) {
      SCOPED_TRACE("len " + std::to_string(n) + " k " + std::to_string(k));
      const SideResult burst = expect_noise_equivalence(
          cfg,
          [&](Environment& env, NoisyChannel& ch, Radio& tx, Radio&,
              Radio& rx) {
            rx.enable_rx(9);
            tx.transmit(9, random_payload(n, 500 + n));
            // k bits are on the air inside dispatch at (k-1) us + 0.5.
            env.schedule(SimTime::us(k - 1) + SimTime::ns(500),
                         [&ch] { ch.set_burst_transport_enabled(false); });
            env.run(SimTime::us(n + 20));
            rx.disable_rx();
          });
      ASSERT_EQ(burst.bits_burst, k);
      ASSERT_EQ(burst.fallbacks, 1u);
    }
  }
}

TEST(NoiseMaskTest, ReseedRederivesEveryPortStream) {
  // Two channels built under different environment seeds flip the same
  // bits once both environments reseed to the same seed; a run in flight
  // at the reseed degrades, so its remainder draws from the new stream.
  std::vector<Logic4> seen[2];
  std::uint64_t flips[2] = {0, 0};
  for (int side = 0; side < 2; ++side) {
    Environment env(side == 0 ? 5 : 6);
    ChannelConfig cfg;
    cfg.ber = 0.1;
    NoisyChannel ch(env, "ch", cfg);
    Radio tx(env, "tx", ch), rx(env, "rx", ch);
    QuietSink sink;
    rx.set_burst_rx_sink(&sink);
    rx.enable_rx(3);
    env.reseed(99);
    tx.transmit(3, random_payload(300, 4));
    env.run(100_us);
    env.reseed(1234);
    EXPECT_EQ(ch.burst_fallbacks(), 1u);
    env.run(300_us);
    rx.disable_rx();
    seen[side] = sink.seen;
    flips[side] = ch.bits_flipped();
  }
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(flips[0], flips[1]);
  EXPECT_GT(flips[0], 0u);
}

TEST(NoiseMaskTest, ContentionMidMaskedRunMatchesPerBit) {
  // A second transmitter on the run's frequency breaks the
  // sole-transmitter premise mid-run: the noisy run rewinds its port's
  // stream, falls back, and from there both ports flip per bit from
  // their own streams exactly as the reference.
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
  // run directly) and the port's stream rewound to the per-bit position.
  EXPECT_EQ(burst.fallbacks, 0u);
  EXPECT_LT(burst.bits_driven, 256u);
}

TEST(NoiseMaskTest, FlippedBitsCounterIsLazyDuringRun) {
  // Mid-run, bits_flipped() must report only the flips of the elapsed
  // prefix -- exactly what the per-bit reference would have counted.
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

// ---- traced channels run per-bit ----

/// Transmits a 50-bit packet at each BER under a tracer made by
/// `make(env)`: every bit must take the per-bit path.
template <class MakeTracer>
void expect_per_bit_when_traced(MakeTracer make) {
  for (const double ber : {0.0, 0.05}) {
    SCOPED_TRACE(ber);
    Environment env(3);
    const auto tracer = make(env);
    env.set_tracer(tracer.get());
    ChannelConfig cfg;
    cfg.ber = ber;
    NoisyChannel ch(env, "ch", cfg);
    Radio tx(env, "tx", ch);
    tx.transmit(1, random_payload(50, 8));
    env.run(100_us);
    EXPECT_EQ(ch.bits_burst(), 0u);
    EXPECT_EQ(ch.bits_driven(), 50u);
    EXPECT_EQ(ch.burst_fallbacks(), 0u);
    env.set_tracer(nullptr);
  }
}

TEST(NoiseMaskTest, RecordingTracerKeepsPerBitSemantics) {
  expect_per_bit_when_traced([](Environment& env) {
    return std::make_unique<sim::RecordingTracer>(env);
  });
}

TEST(NoiseMaskTest, VcdTracerKeepsPerBitSemantics) {
  const std::string path = ::testing::TempDir() + "btsc_noise_stream_" +
                           std::to_string(::getpid()) + ".vcd";
  expect_per_bit_when_traced([&](Environment& env) {
    return std::make_unique<sim::VcdTracer>(env, path);
  });
  std::remove(path.c_str());
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
  // end. The twin's flips are redrawn from the run's saved base
  // stream, so its remaining samples must equal the original's.
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

TEST(NoiseMaskTest, TracedChannelCheckpointsMidPacket) {
  // A traced channel carries its packets per-bit, so it holds no burst
  // run mid-packet and checkpoints like any other: a traced twin
  // restores the image, saves the same bytes, and finishes the packet
  // with the same flips.
  const std::string base = ::testing::TempDir() + "btsc_noise_stream_ckpt_" +
                           std::to_string(::getpid());
  ChannelConfig cfg;
  cfg.ber = 0.01;
  {
    Environment env(29);
    sim::VcdTracer tracer(env, base + "_a.vcd");
    env.set_tracer(&tracer);
    NoisyChannel ch(env, "ch", cfg);
    Radio tx(env, "tx", ch), rx(env, "rx", ch);
    rx.enable_rx(7);
    tx.transmit(7, random_payload(300, 3));
    env.run(100_us);
    ASSERT_TRUE(ch.busy());
    ASSERT_FALSE(ch.burst_active(tx.port()));
    const auto snap = save_phy(env, ch, tx, rx);

    Environment env2(29);
    sim::VcdTracer tracer2(env2, base + "_b.vcd");
    env2.set_tracer(&tracer2);
    NoisyChannel ch2(env2, "ch", cfg);
    Radio tx2(env2, "tx", ch2), rx2(env2, "rx", ch2);
    restore_phy(snap, env2, ch2, tx2, rx2);
    EXPECT_EQ(save_phy(env2, ch2, tx2, rx2), snap);

    env.run(400_us);
    env2.run(400_us);
    EXPECT_EQ(ch2.bits_driven(), 300u);
    EXPECT_EQ(ch2.bits_burst(), 0u);
    EXPECT_EQ(ch.bits_flipped(), ch2.bits_flipped());
    EXPECT_EQ(save_phy(env2, ch2, tx2, rx2), save_phy(env, ch, tx, rx));
    env.set_tracer(nullptr);
    env2.set_tracer(nullptr);
  }
  std::remove((base + "_a.vcd").c_str());
  std::remove((base + "_b.vcd").c_str());
}

}  // namespace
}  // namespace btsc::phy
