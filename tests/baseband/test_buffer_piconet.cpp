#include <gtest/gtest.h>

#include "baseband/buffer.hpp"
#include "baseband/piconet.hpp"

namespace btsc::baseband {
namespace {

TEST(PacketBufferTest, FifoOrder) {
  PacketBuffer buf;
  buf.push({kLlidStart, {1}});
  buf.push({kLlidStart, {2}});
  EXPECT_EQ(buf.pop().data, (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(buf.pop().data, (std::vector<std::uint8_t>{2}));
  EXPECT_TRUE(buf.empty());
}

TEST(PacketBufferTest, LmpOvertakesData) {
  PacketBuffer buf;
  buf.push({kLlidStart, {1}});
  buf.push({kLlidLmp, {9}});
  buf.push({kLlidStart, {2}});
  EXPECT_EQ(buf.pop().llid, kLlidLmp);
  EXPECT_EQ(buf.pop().data, (std::vector<std::uint8_t>{1}));
}

TEST(PacketBufferTest, CapacityAndDrops) {
  PacketBuffer buf(2);
  EXPECT_TRUE(buf.push({kLlidStart, {1}}));
  EXPECT_TRUE(buf.push({kLlidStart, {2}}));
  EXPECT_FALSE(buf.push({kLlidStart, {3}}));
  EXPECT_EQ(buf.dropped(), 1u);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(PacketBufferTest, PopOnEmptyThrows) {
  PacketBuffer buf;
  EXPECT_THROW(buf.pop(), std::logic_error);
}

TEST(PiconetTest, AssignsSequentialLtAddrs) {
  Piconet p;
  EXPECT_EQ(p.add_slave(BdAddr(1, 0, 0)), 1);
  EXPECT_EQ(p.add_slave(BdAddr(2, 0, 0)), 2);
  EXPECT_EQ(p.add_slave(BdAddr(3, 0, 0)), 3);
}

TEST(PiconetTest, ReAddReturnsSameLtAddr) {
  Piconet p;
  const auto lt = p.add_slave(BdAddr(7, 0, 0));
  EXPECT_EQ(p.add_slave(BdAddr(7, 0, 0)), lt);
  EXPECT_EQ(p.slaves().size(), 1u);
}

TEST(PiconetTest, SevenSlaveLimit) {
  Piconet p;
  for (std::uint32_t i = 1; i <= 7; ++i) {
    EXPECT_TRUE(p.add_slave(BdAddr(i, 0, 0)).has_value());
  }
  EXPECT_FALSE(p.add_slave(BdAddr(8, 0, 0)).has_value());
}

TEST(PiconetTest, RemoveFreesLtAddr) {
  Piconet p;
  p.add_slave(BdAddr(1, 0, 0));
  p.add_slave(BdAddr(2, 0, 0));
  p.remove_slave(1);
  EXPECT_EQ(p.find(std::uint8_t{1}), nullptr);
  // The freed LT_ADDR is reused for the next admission.
  EXPECT_EQ(p.add_slave(BdAddr(3, 0, 0)), 1);
}

TEST(PiconetTest, FindByAddress) {
  Piconet p;
  p.add_slave(BdAddr(0xAAA, 0x1, 0));
  SlaveLink* link = p.find(BdAddr(0xAAA, 0x1, 0));
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->lt_addr, 1);
  EXPECT_EQ(p.find(BdAddr(0xBBB, 0, 0)), nullptr);
}

TEST(PiconetTest, ActiveCountExcludesParked) {
  Piconet p;
  p.add_slave(BdAddr(1, 0, 0));
  p.add_slave(BdAddr(2, 0, 0));
  EXPECT_FALSE(p.has_parked());
  p.find(std::uint8_t{2})->mode = LinkMode::kPark;
  EXPECT_TRUE(p.has_parked());
}

TEST(SlaveLinkTest, SniffWindowPhase) {
  SlaveLink link;
  link.mode = LinkMode::kSniff;
  link.sniff_interval_slots = 10;
  link.sniff_offset_slots = 4;
  link.sniff_attempt_slots = 2;
  // Anchor slots: slot % 10 in {4, 5}. clk counts half slots.
  EXPECT_TRUE(link.in_sniff_window(8));    // slot 4
  EXPECT_TRUE(link.in_sniff_window(10));   // slot 5
  EXPECT_FALSE(link.in_sniff_window(12));  // slot 6
  EXPECT_FALSE(link.in_sniff_window(6));   // slot 3
  EXPECT_TRUE(link.in_sniff_window(28));   // slot 14
}

TEST(SlaveLinkTest, SniffWindowInactiveWhenNotSniffing) {
  SlaveLink link;
  link.sniff_interval_slots = 10;
  EXPECT_FALSE(link.in_sniff_window(0));
  link.mode = LinkMode::kSniff;
  link.sniff_interval_slots = 0;
  EXPECT_FALSE(link.in_sniff_window(0));
}

TEST(LinkModeTest, ToString) {
  EXPECT_STREQ(to_string(LinkMode::kActive), "active");
  EXPECT_STREQ(to_string(LinkMode::kSniff), "sniff");
  EXPECT_STREQ(to_string(LinkMode::kHold), "hold");
  EXPECT_STREQ(to_string(LinkMode::kPark), "park");
}

}  // namespace
}  // namespace btsc::baseband
