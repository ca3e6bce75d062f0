#include "lm/lmp.hpp"

#include <gtest/gtest.h>

namespace btsc::lm {
namespace {

TEST(LmpPduTest, SniffReqRoundTrip) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kSniffReq;
  pdu.master_initiated = true;
  pdu.interval = 100;
  pdu.offset = 6;
  pdu.attempt = 1;
  const auto decoded = LmpPdu::decode(pdu.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->opcode, LmpOpcode::kSniffReq);
  EXPECT_EQ(decoded->interval, 100u);
  EXPECT_EQ(decoded->offset, 6u);
  EXPECT_EQ(decoded->attempt, 1u);
  EXPECT_TRUE(decoded->master_initiated);
}

TEST(LmpPduTest, HoldReqRoundTrip) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kHoldReq;
  pdu.master_initiated = false;
  pdu.interval = 400;
  pdu.instant = 123456;
  const auto decoded = LmpPdu::decode(pdu.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->interval, 400u);
  EXPECT_EQ(decoded->instant, 123456u);
  EXPECT_FALSE(decoded->master_initiated);
}

TEST(LmpPduTest, ParkReqRoundTrip) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kParkReq;
  pdu.pm_addr = 7;
  pdu.instant = 99999;
  const auto decoded = LmpPdu::decode(pdu.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->pm_addr, 7u);
  EXPECT_EQ(decoded->instant, 99999u);
}

TEST(LmpPduTest, UnparkReqRoundTrip) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kUnparkReq;
  pdu.pm_addr = 3;
  pdu.lt_addr = 2;
  const auto decoded = LmpPdu::decode(pdu.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->pm_addr, 3u);
  EXPECT_EQ(decoded->lt_addr, 2u);
}

TEST(LmpPduTest, AcceptedCarriesOpcode) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kAccepted;
  pdu.accepted_opcode = LmpOpcode::kHoldReq;
  const auto decoded = LmpPdu::decode(pdu.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->accepted_opcode, LmpOpcode::kHoldReq);
}

TEST(LmpPduTest, DetachCarriesReason) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kDetach;
  pdu.reason = 0x13;
  const auto decoded = LmpPdu::decode(pdu.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->reason, 0x13u);
}

TEST(LmpPduTest, ParameterlessPdus) {
  for (LmpOpcode op : {LmpOpcode::kUnsniffReq, LmpOpcode::kSetupComplete}) {
    LmpPdu pdu;
    pdu.opcode = op;
    const auto bytes = pdu.encode();
    EXPECT_EQ(bytes.size(), 1u);
    const auto decoded = LmpPdu::decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->opcode, op);
  }
}

TEST(LmpPduTest, FitsInDm1Payload) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kSniffReq;
  pdu.interval = ~0u;
  pdu.offset = ~0u;
  pdu.attempt = 0xFFFF;
  EXPECT_LE(pdu.encode().size(), 17u);  // DM1 user capacity
}

TEST(LmpPduTest, DecodeRejectsEmptyAndTruncated) {
  EXPECT_FALSE(LmpPdu::decode({}).has_value());
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kSniffReq;
  pdu.interval = 10;
  auto bytes = pdu.encode();
  bytes.resize(bytes.size() - 1);
  EXPECT_FALSE(LmpPdu::decode(bytes).has_value());
}

TEST(LmpPduTest, DecodeRejectsUnknownOpcode) {
  EXPECT_FALSE(LmpPdu::decode({static_cast<std::uint8_t>(99u << 1)}));
}

TEST(LmpPduTest, TidBitPreserved) {
  LmpPdu pdu;
  pdu.opcode = LmpOpcode::kSetupComplete;
  pdu.master_initiated = false;
  EXPECT_EQ(pdu.encode()[0] & 1u, 1u);
  pdu.master_initiated = true;
  EXPECT_EQ(pdu.encode()[0] & 1u, 0u);
}

}  // namespace
}  // namespace btsc::lm
