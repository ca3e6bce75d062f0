#include "baseband/access_code.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "baseband/address.hpp"
#include "sim/rng.hpp"
#include "support/bits.hpp"

namespace btsc::baseband {
namespace {

/// Air bit i of a sync word.
bool air_bit(std::uint64_t sync, int i) { return (sync >> i) & 1u; }

/// Bit-serial reference of the sync word construction: the (64,30) BCH
/// encoding by long division one coefficient at a time, on plain bit
/// arrays (spec part B, access code construction). Independent of the
/// word arithmetic in sync_bits().
std::uint64_t reference_sync_bits(std::uint32_t lap) {
  constexpr std::uint64_t kPn = 0x83848D96BBCC54FCull;
  constexpr std::uint64_t kGenerator = 0260534236651ull;  // degree 34
  bool pn[64];
  for (int i = 0; i < 64; ++i) pn[i] = (kPn >> i) & 1u;
  // Information bits: the LAP, then the Barker extension picked by LAP
  // bit 23, each scrambled with the PN bit it will sit over.
  bool info[30];
  const bool msb = (lap >> 23) & 1u;
  // 001101b when bit 23 is clear, 110010b when set; LSB first.
  const bool barker[6] = {!msb, msb, !msb, !msb, msb, msb};
  for (int i = 0; i < 24; ++i) info[i] = (lap >> i) & 1u;
  for (int i = 0; i < 6; ++i) info[24 + i] = barker[i];
  bool code[64] = {};
  for (int i = 0; i < 30; ++i) code[34 + i] = info[i] != pn[34 + i];
  // Parity: the remainder of info(D) * D^34 modulo g(D).
  bool rem[64];
  for (int i = 0; i < 64; ++i) rem[i] = code[i];
  for (int deg = 63; deg >= 34; --deg) {
    if (!rem[deg]) continue;
    for (int j = 0; j <= 34; ++j) {
      if ((kGenerator >> j) & 1u) rem[deg - 34 + j] = !rem[deg - 34 + j];
    }
  }
  for (int i = 0; i < 34; ++i) code[i] = rem[i];
  std::uint64_t word = 0;
  for (int i = 0; i < 64; ++i) {
    word |= static_cast<std::uint64_t>(code[i] != pn[i]) << i;
  }
  return word;
}

TEST(SyncWordTest, SixtyFourBits) {
  // The word uses all 64 positions: both edge bits vary across LAPs.
  std::uint64_t any = 0, all = ~0ull;
  for (std::uint32_t lap : {kGiacLap, 0x000000u, 0xFFFFFFu, 0x123456u,
                            0x800000u, 0x7FFFFFu}) {
    any |= sync_bits(lap);
    all &= sync_bits(lap);
  }
  EXPECT_EQ(any >> 63, 1u);
  EXPECT_EQ(any & 1u, 1u);
  EXPECT_EQ(all >> 63, 0u);
  EXPECT_EQ(all & 1u, 0u);
}

TEST(SyncWordTest, DeterministicPerLap) {
  EXPECT_EQ(sync_bits(0x123456), sync_bits(0x123456));
  EXPECT_NE(sync_bits(0x123456), sync_bits(0x123457));
}

TEST(SyncWordTest, MatchesBitSerialReference) {
  // 4096 seeded LAPs plus the edge LAPs: GIAC, all zeros, all ones, and
  // both values of LAP bit 23 (which selects the Barker extension).
  std::vector<std::uint32_t> laps = {kGiacLap, 0x000000u, 0xFFFFFFu,
                                     0x7FFFFFu, 0x800000u};
  btsc::sim::Rng rng(0x5EED);
  for (int i = 0; i < 4096; ++i) {
    laps.push_back(static_cast<std::uint32_t>(rng.uniform(0, 0xFFFFFF)));
  }
  std::uint64_t digest = 0xCBF29CE484222325ull;  // FNV-1a over the seeded words
  for (std::size_t i = 0; i < laps.size(); ++i) {
    const std::uint64_t word = sync_bits(laps[i]);
    ASSERT_EQ(word, reference_sync_bits(laps[i])) << std::hex << laps[i];
    if (i >= 5) digest = (digest ^ word) * 0x100000001B3ull;
  }
  // Pinned values: the digest of the seeded words, and the edge words.
  EXPECT_EQ(digest, 0x1A69E0052F04A9EEull);
  EXPECT_EQ(sync_bits(kGiacLap), 0xCA7A2CCF7E6DFC64ull);
  EXPECT_EQ(sync_bits(0x000000), 0x340000038AF5C8F8ull);
  EXPECT_EQ(sync_bits(0xFFFFFF), 0xCBFFFFFF09DADC61ull);
  EXPECT_EQ(sync_bits(0x7FFFFF), 0x35FFFFFDA90B1C75ull);
  EXPECT_EQ(sync_bits(0x800000), 0xCA0000012A2408ECull);
  // Only the low 24 LAP bits count.
  EXPECT_EQ(sync_bits(0x1000000u | kGiacLap), sync_bits(kGiacLap));
}

TEST(SyncWordTest, LargePairwiseDistance) {
  // The BCH construction guarantees distant sync words; validate a sample
  // of LAP pairs stays far above the correlator threshold margin
  // (64 - 54 = 10 tolerated errors, so distance must exceed 20 to avoid
  // cross-triggering in the worst case; the code's d_min is 14 but random
  // pairs are typically much farther).
  btsc::sim::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const auto lap_a = static_cast<std::uint32_t>(rng.uniform(0, 0xFFFFFF));
    const auto lap_b = static_cast<std::uint32_t>(rng.uniform(0, 0xFFFFFF));
    if (lap_a == lap_b) continue;
    const auto dist = std::popcount(sync_bits(lap_a) ^ sync_bits(lap_b));
    EXPECT_GE(dist, 14) << std::hex << lap_a << " vs " << lap_b;
  }
}

TEST(SyncWordTest, BalancedBitCount) {
  // PN scrambling keeps sync words roughly balanced; sanity-check GIAC.
  const int ones = std::popcount(sync_bits(kGiacLap));
  EXPECT_GT(ones, 16);
  EXPECT_LT(ones, 48);
}

/// The first `n` air bits of `lap`'s access code.
sim::BitVector air_bits(std::uint32_t lap, std::size_t n) {
  sim::BitVector out;
  AccessCode::of(lap).append_to(out, n);
  return out;
}

TEST(AccessCodeTest, IdLengthWithoutTrailer) {
  EXPECT_EQ(air_bits(kGiacLap, kIdPacketBits).size(), kIdPacketBits);
}

TEST(AccessCodeTest, FullLengthWithTrailer) {
  EXPECT_EQ(air_bits(0x123456, kAccessCodeBits).size(), kAccessCodeBits);
}

TEST(AccessCodeTest, SyncEmbeddedAfterPreamble) {
  const AccessCode ac = AccessCode::of(0xABCDEF);
  EXPECT_EQ(ac.sync, sync_bits(0xABCDEF));
  EXPECT_EQ(ac.bits(4, 64), sync_bits(0xABCDEF));
  EXPECT_EQ(air_bits(0xABCDEF, kAccessCodeBits).extract_word(4, 64),
            sync_bits(0xABCDEF));
}

TEST(AccessCodeTest, GiacIdAccessCodePinned) {
  // The GIAC ID packet's 68 air bits (preamble + sync), LSB first, and
  // the trailer a header would add.
  const auto id = air_bits(kGiacLap, kIdPacketBits);
  ASSERT_EQ(id.size(), kIdPacketBits);
  EXPECT_EQ(id.extract_word(0, 64), 0xA7A2CCF7E6DFC64Aull);
  EXPECT_EQ(id.extract_word(64, 4), 0xCu);
  const auto full = air_bits(kGiacLap, kAccessCodeBits);
  EXPECT_EQ(test::slice(full, 0, kIdPacketBits), id);
  EXPECT_EQ(full.extract_word(64, 8), 0xACu);
}

TEST(AccessCodeTest, PreambleAlternates) {
  for (std::uint32_t lap : {0x000000u, 0x9E8B33u, 0xFFFFFFu, 0x5A5A5Au}) {
    const auto ac = air_bits(lap, kIdPacketBits);
    // The four preamble bits alternate 0101 or 1010.
    EXPECT_NE(ac[0], ac[1]);
    EXPECT_NE(ac[1], ac[2]);
    EXPECT_NE(ac[2], ac[3]);
    // ... and keep alternating into the first sync bit.
    EXPECT_NE(ac[3], ac[4]);
  }
}

TEST(CorrelatorTest, DetectsCleanSyncWord) {
  const std::uint64_t sw = sync_bits(kGiacLap);
  Correlator corr(sw);
  bool hit = false;
  for (int i = 0; i < 64; ++i) hit = corr.push(air_bit(sw, i));
  EXPECT_TRUE(hit);
}

TEST(CorrelatorTest, DetectsSyncAfterArbitraryPrefix) {
  const std::uint64_t sw = sync_bits(0x42F00D);
  Correlator corr(sw);
  btsc::sim::Rng rng(3);
  // 100 random prefix bits, then the sync word.
  int hits = 0;
  for (int i = 0; i < 100; ++i) hits += corr.push(rng.bernoulli(0.5));
  bool hit_at_end = false;
  for (int i = 0; i < 64; ++i) hit_at_end = corr.push(air_bit(sw, i));
  EXPECT_TRUE(hit_at_end);
}

TEST(CorrelatorTest, ToleratesUpToTenErrors) {
  const std::uint64_t sw = sync_bits(0x9E8B33);
  btsc::sim::Rng rng(4);
  std::uint64_t noisy = sw;
  std::set<std::size_t> flipped;
  while (flipped.size() < 10) {
    const auto pos = rng.uniform(0, 63);
    if (flipped.insert(pos).second) noisy ^= 1ull << pos;
  }
  Correlator corr(sw);
  bool hit = false;
  for (int i = 0; i < 64; ++i) hit = corr.push(air_bit(noisy, i));
  EXPECT_TRUE(hit);
}

TEST(CorrelatorTest, RejectsElevenErrors) {
  const std::uint64_t sw = sync_bits(0x9E8B33);
  std::uint64_t noisy = sw;
  for (int i = 0; i < 11; ++i) noisy ^= 1ull << (i * 5);
  Correlator corr(sw);
  bool hit = false;
  for (int i = 0; i < 64; ++i) hit |= corr.push(air_bit(noisy, i));
  EXPECT_FALSE(hit);
}

TEST(CorrelatorTest, DoesNotTriggerOnIdleZeros) {
  Correlator corr(sync_bits(kGiacLap));
  for (int i = 0; i < 1000; ++i) {
    ASSERT_FALSE(corr.push(false)) << "false trigger on idle medium";
  }
}

TEST(CorrelatorTest, DoesNotTriggerOnOtherLap) {
  const std::uint64_t other = sync_bits(0x222222);
  Correlator corr(sync_bits(0x111111));
  for (int i = 0; i < 64; ++i) {
    ASSERT_FALSE(corr.push(air_bit(other, i)));
  }
}

TEST(CorrelatorTest, RareFalsePositivesOnRandomNoise) {
  Correlator corr(sync_bits(kGiacLap));
  btsc::sim::Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 200000; ++i) hits += corr.push(rng.bernoulli(0.5));
  // P(>=54 of 64 matches) per window ~ 4e-10; 2e5 windows -> ~0 expected.
  EXPECT_EQ(hits, 0);
}

TEST(CorrelatorTest, ResetClearsHistory) {
  const std::uint64_t sw = sync_bits(0x314159);
  Correlator corr(sw);
  for (int i = 0; i < 40; ++i) corr.push(air_bit(sw, i));
  corr.reset();
  EXPECT_TRUE(corr == Correlator(sw));
  // Continuing mid-word after reset must not trigger within 63 bits.
  bool hit = false;
  for (int i = 40; i < 64; ++i) hit |= corr.push(air_bit(sw, i));
  EXPECT_FALSE(hit);
}

}  // namespace
}  // namespace btsc::baseband
