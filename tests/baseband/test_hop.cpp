// Hop selection kernel properties: range, determinism, coverage of all 79
// channels in connection mode, 32-frequency trains in page/inquiry mode,
// scan frequency schedule, sensitivity to address/clock inputs, and the
// table-driven PERM5 against the bit-serial reference.
#include "baseband/hop.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baseband/address.hpp"
#include "baseband/bt_clock.hpp"
#include "support/perm5_reference.hpp"

namespace btsc::baseband {
namespace {

const BdAddr kMaster(0x2A96EF, 0x5B, 0x0001);

HopInput connection_input(std::uint32_t clk) {
  HopInput in;
  in.address = kMaster.hop_address();
  in.clock = clk;
  in.mode = HopMode::kConnection;
  return in;
}

TEST(HopTest, AlwaysInRange) {
  for (std::uint32_t clk = 0; clk < 4096; ++clk) {
    for (HopMode mode :
         {HopMode::kConnection, HopMode::kPage, HopMode::kPageScan,
          HopMode::kInquiry, HopMode::kInquiryScan}) {
      HopInput in;
      in.address = kMaster.hop_address();
      in.clock = clk * 37u;
      in.mode = mode;
      const int f = hop_frequency(in);
      ASSERT_GE(f, 0);
      ASSERT_LT(f, kNumRfChannels);
    }
  }
}

TEST(HopTest, Deterministic) {
  const auto in = connection_input(0x123456);
  EXPECT_EQ(hop_frequency(in), hop_frequency(in));
}

TEST(HopTest, ConnectionModeVisitsAll79Channels) {
  std::set<int> seen;
  // CLK advances by 2 per slot (bit 0 is intra-slot); sweep many slots.
  for (std::uint32_t clk = 0; clk < 4 * 4096; clk += 2) {
    seen.insert(hop_frequency(connection_input(clk)));
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kNumRfChannels));
}

TEST(HopTest, ConnectionModeRoughlyUniform) {
  std::map<int, int> counts;
  const int slots = 79 * 400;
  for (int s = 0; s < slots; ++s) {
    counts[hop_frequency(connection_input(static_cast<std::uint32_t>(s) * 2))]++;
  }
  for (const auto& [freq, count] : counts) {
    EXPECT_GT(count, 400 / 4) << "channel " << freq << " starved";
    EXPECT_LT(count, 400 * 4) << "channel " << freq << " dominates";
  }
}

TEST(HopTest, ConsecutiveSlotsChangeFrequency) {
  // FHSS: consecutive hops should almost always differ; require > 95%.
  int changes = 0;
  const int n = 2000;
  for (int s = 0; s < n; ++s) {
    const int f1 = hop_frequency(connection_input(static_cast<std::uint32_t>(s) * 2));
    const int f2 =
        hop_frequency(connection_input(static_cast<std::uint32_t>(s) * 2 + 2));
    changes += (f1 != f2);
  }
  EXPECT_GT(changes, n * 95 / 100);
}

TEST(HopTest, DifferentMastersGiveDifferentSequences) {
  const BdAddr other(0x13579B, 0x24, 0x0002);
  int same = 0;
  const int n = 1000;
  for (int s = 0; s < n; ++s) {
    HopInput a = connection_input(static_cast<std::uint32_t>(s) * 2);
    HopInput b = a;
    b.address = other.hop_address();
    same += hop_frequency(a) == hop_frequency(b);
  }
  // Two pseudo-random sequences over 79 channels collide ~ n/79 times.
  EXPECT_LT(same, n / 10);
}

TEST(HopTest, SlaveToMasterSlotUsesDifferentFrequency) {
  // Y1 (CLK bit 1) separates master-TX and slave-TX frequencies.
  int diff = 0;
  const int n = 500;
  for (int s = 0; s < n; ++s) {
    const std::uint32_t clk = static_cast<std::uint32_t>(s) * 4;
    const int f_tx = hop_frequency(connection_input(clk));
    const int f_rx = hop_frequency(connection_input(clk + 2));
    diff += (f_tx != f_rx);
  }
  EXPECT_GT(diff, n * 9 / 10);
}

TEST(HopTest, PageModeCoversExactly32Frequencies) {
  // Master page transmissions happen in slots with CLK bit 1 = 0 (bit 1
  // selects the response frequency set); the TX train spans 32 channels.
  std::set<int> train;
  HopInput in;
  in.address = kMaster.hop_address();
  in.mode = HopMode::kPage;
  for (int koffset : {kTrainA, kTrainB}) {
    in.koffset = koffset;
    for (std::uint32_t clk = 0; clk < 64; ++clk) {
      if ((clk >> 1) & 1u) continue;  // TX half-slots only
      in.clock = clk;
      train.insert(hop_frequency(in));
    }
  }
  EXPECT_EQ(train.size(), 32u);
}

TEST(HopTest, PageTrainsAAndBAreDisjointHalves) {
  HopInput in;
  in.address = kMaster.hop_address();
  in.mode = HopMode::kPage;
  std::set<int> a, b;
  for (std::uint32_t clk = 0; clk < 64; ++clk) {
    if ((clk >> 1) & 1u) continue;  // TX half-slots only
    in.clock = clk;
    in.koffset = kTrainA;
    a.insert(hop_frequency(in));
    in.koffset = kTrainB;
    b.insert(hop_frequency(in));
  }
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(b.size(), 16u);
  for (int f : a) EXPECT_EQ(b.count(f), 0u) << "trains overlap at " << f;
}

TEST(HopTest, PageScanFrequencyChangesEvery1_28s) {
  HopInput in;
  in.address = kMaster.hop_address();
  in.mode = HopMode::kPageScan;
  // CLKN bit 12 flips every 2^12 ticks = 1.28 s.
  in.clock = 0;
  const int f0 = hop_frequency(in);
  in.clock = 0xFFF;  // same CLKN[16:12]
  EXPECT_EQ(hop_frequency(in), f0);
  in.clock = 0x1000;  // next scan interval
  const int f1 = hop_frequency(in);
  EXPECT_NE(f0, f1);
}

TEST(HopTest, PageScanCycles32Frequencies) {
  HopInput in;
  in.address = kMaster.hop_address();
  in.mode = HopMode::kPageScan;
  std::set<int> fs;
  for (std::uint32_t k = 0; k < 32; ++k) {
    in.clock = k << 12;
    fs.insert(hop_frequency(in));
  }
  EXPECT_EQ(fs.size(), 32u);
}

TEST(HopTest, PageHitsScannersFrequencyWithGoodClockEstimate) {
  // The page train around an accurate clock estimate must contain the
  // slave's current page scan frequency - the property that makes paging
  // complete in ~17 slots in the paper.
  const BdAddr slave(0x77C2D1, 0x9A, 0x0003);
  for (std::uint32_t base_clk = 0; base_clk < (1u << 20); base_clk += 77777) {
    HopInput scan;
    scan.address = slave.hop_address();
    scan.mode = HopMode::kPageScan;
    scan.clock = base_clk;
    const int f_scan = hop_frequency(scan);

    bool hit = false;
    HopInput page;
    page.address = slave.hop_address();
    page.mode = HopMode::kPage;
    for (int half_slot = 0; half_slot < 64 && !hit; ++half_slot) {
      page.clock = (base_clk + static_cast<std::uint32_t>(half_slot)) &
                   kClockMask;
      for (int koffset : {kTrainA, kTrainB}) {
        page.koffset = koffset;
        hit |= hop_frequency(page) == f_scan;
      }
    }
    EXPECT_TRUE(hit) << "page train misses scan freq at clk " << base_clk;
  }
}

TEST(HopTest, InquiryUsesGiacTrains) {
  HopInput in;
  in.address = BdAddr(kGiacLap, kDefaultCheckInit, 0).hop_address();
  in.mode = HopMode::kInquiry;
  std::set<int> fs;
  for (int koffset : {kTrainA, kTrainB}) {
    in.koffset = koffset;
    for (std::uint32_t clk = 0; clk < 64; ++clk) {
      if ((clk >> 1) & 1u) continue;  // TX half-slots only
      in.clock = clk;
      fs.insert(hop_frequency(in));
    }
  }
  EXPECT_EQ(fs.size(), 32u);
}

TEST(HopTest, ResponseSequenceStepsWithN) {
  HopInput in;
  in.address = kMaster.hop_address();
  in.mode = HopMode::kMasterPageResponse;
  in.frozen_clock = 0x5A5A5;
  in.clock = 0x5A5A5;
  std::set<int> fs;
  for (int n = 0; n < 32; ++n) {
    in.response_n = n;
    fs.insert(hop_frequency(in));
  }
  EXPECT_GE(fs.size(), 16u);  // N sweeps the 32-frequency response set
}

TEST(HopTest, PhaseXFollowsTrainFormula) {
  HopInput in;
  in.address = kMaster.hop_address();
  in.mode = HopMode::kPage;
  in.koffset = kTrainA;
  in.clock = 0;
  const int x0 = hop_phase_x(in);
  EXPECT_GE(x0, 0);
  EXPECT_LT(x0, 32);
  // The fast counter (bit 0) moves X between the two half slots.
  in.clock = 1;
  EXPECT_NE(hop_phase_x(in), x0);
}

TEST(HopTest, Perm5TablesMatchTheButterflyLoop) {
  // Every control word P13..P0 on every 5-bit input.
  int mismatches = 0;
  for (std::uint32_t control = 0; control < (1u << 14); ++control) {
    for (int z = 0; z < 32; ++z) {
      mismatches += perm5(z, control) != test::perm5_reference(z, control);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace btsc::baseband
