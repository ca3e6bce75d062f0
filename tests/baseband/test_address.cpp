#include "baseband/address.hpp"

#include <gtest/gtest.h>

namespace btsc::baseband {
namespace {

TEST(BdAddrTest, FieldsRoundTrip) {
  const BdAddr a(0x123456, 0xAB, 0xCDEF);
  EXPECT_EQ(a.lap(), 0x123456u);
  EXPECT_EQ(a.uap(), 0xABu);
}

TEST(BdAddrTest, RawPackingLayout) {
  const BdAddr a(0x123456, 0xAB, 0xCDEF);
  EXPECT_EQ(a.raw(), 0xCDEFAB123456ull);
  EXPECT_EQ(BdAddr::from_raw(0xCDEFAB123456ull), a);
}

TEST(BdAddrTest, LapMaskedTo24Bits) {
  const BdAddr a(0xFF123456, 0, 0);
  EXPECT_EQ(a.lap(), 0x123456u);
}

TEST(BdAddrTest, HopAddressUses28Bits) {
  const BdAddr a(0xABCDEF, 0x3C, 0);
  // LAP in the low 24 bits, UAP low nibble above.
  EXPECT_EQ(a.hop_address(), 0xABCDEFu | (0xCu << 24));
}

TEST(BdAddrTest, Ordering) {
  EXPECT_LT(BdAddr(1, 0, 0), BdAddr(2, 0, 0));
  EXPECT_EQ(BdAddr(), BdAddr(0, 0, 0));
}

TEST(BdAddrTest, ToStringFormat) {
  EXPECT_EQ(BdAddr(0x9E8B33, 0x12, 0xBEEF).to_string(), "BEEF:12:9E8B33");
}

TEST(BdAddrTest, GiacConstant) {
  EXPECT_EQ(kGiacLap, 0x9E8B33u);
  EXPECT_EQ(kGiacLap & 0xFFFFC0u, kDiacBaseLap & 0xFFFFC0u)
      << "GIAC must live in the reserved DIAC block";
}

}  // namespace
}  // namespace btsc::baseband
