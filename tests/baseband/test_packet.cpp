#include "baseband/packet.hpp"

#include <gtest/gtest.h>

#include "baseband/crc.hpp"
#include "baseband/fec.hpp"
#include "baseband/hec.hpp"
#include "baseband/whitening.hpp"
#include "sim/rng.hpp"
#include "support/bits.hpp"

namespace btsc::baseband {
namespace {

/// compose_after_access_code() into a fresh vector.
sim::BitVector composed(const PacketHeader& h,
                        const std::vector<std::uint8_t>& body,
                        const LinkParams& params) {
  sim::BitVector bits;
  compose_after_access_code(h, body, params, bits);
  return bits;
}

TEST(PacketTypeTest, GeometryTable) {
  EXPECT_EQ(slots_occupied(PacketType::kDm1), 1);
  EXPECT_EQ(slots_occupied(PacketType::kDh3), 3);
  EXPECT_EQ(slots_occupied(PacketType::kDm5), 5);
  EXPECT_EQ(max_user_bytes(PacketType::kDm1), 17u);
  EXPECT_EQ(max_user_bytes(PacketType::kDh1), 27u);
  EXPECT_EQ(max_user_bytes(PacketType::kDm3), 121u);
  EXPECT_EQ(max_user_bytes(PacketType::kDh3), 183u);
  EXPECT_EQ(max_user_bytes(PacketType::kDm5), 224u);
  EXPECT_EQ(max_user_bytes(PacketType::kDh5), 339u);
  EXPECT_TRUE(is_fec23(PacketType::kDm5));
  EXPECT_TRUE(is_fec23(PacketType::kFhs));
  EXPECT_FALSE(is_fec23(PacketType::kDh5));
  EXPECT_FALSE(has_payload(PacketType::kPoll));
  EXPECT_FALSE(has_payload(PacketType::kNull));
}

TEST(PacketTypeTest, AirBitsMatchSpecDurations) {
  // Full packets: DH1 = 366 us, DH3 = 1622 us, DH5 = 2870 us; DM variants
  // 366/1626/2862 us. These must fit in their slot allocation.
  EXPECT_EQ(air_bits(PacketType::kDh1, 27), 366u);
  EXPECT_EQ(air_bits(PacketType::kDm1, 17), 366u);
  EXPECT_EQ(air_bits(PacketType::kDh3, 183), 1622u);
  EXPECT_EQ(air_bits(PacketType::kDm3, 121), 1626u);
  EXPECT_EQ(air_bits(PacketType::kDh5, 339), 2870u);
  EXPECT_EQ(air_bits(PacketType::kDm5, 224), 2871u);
  EXPECT_EQ(air_bits(PacketType::kFhs, 0), 366u);
  EXPECT_EQ(air_bits(PacketType::kNull, 0), 126u);
  EXPECT_EQ(air_bits(PacketType::kPoll, 0), 126u);
  // Slot budget: N slots minus turnaround headroom.
  EXPECT_LE(air_bits(PacketType::kDh1, 27), 625u);
  EXPECT_LE(air_bits(PacketType::kDh3, 183), 3 * 625u);
  EXPECT_LE(air_bits(PacketType::kDh5, 339), 5 * 625u);
}

TEST(PacketHeaderTest, PackUnpackRoundTrip) {
  PacketHeader h;
  h.lt_addr = 5;
  h.type = PacketType::kDm3;
  h.flow = false;
  h.arqn = true;
  h.seqn = true;
  EXPECT_EQ(PacketHeader::unpack(h.pack()), h);
}

TEST(PacketHeaderTest, PackLayout) {
  PacketHeader h;
  h.lt_addr = 0b101;
  h.type = PacketType::kPoll;  // 0001
  h.flow = true;
  h.arqn = false;
  h.seqn = true;
  // bits: SEQN ARQN FLOW TYPE(4) LT_ADDR(3) = 1 0 1 0001 101
  EXPECT_EQ(h.pack(), 0b1010001101u);
}

TEST(FhsPayloadTest, RoundTrip) {
  FhsPayload f;
  f.addr = BdAddr(0x9ABCDE, 0x12, 0x3456);
  f.clk27_2 = 0x2ABCDEF;
  f.lt_addr = 3;
  f.class_of_device = 0x5A020C;
  const auto bytes = f.to_bytes();
  EXPECT_EQ(bytes.size(), kFhsBytes);
  EXPECT_EQ(FhsPayload::from_bytes(bytes), f);
}

TEST(FhsPayloadTest, ClockTruncatedTo26Bits) {
  FhsPayload f;
  f.clk27_2 = 0xFFFFFFFF;
  const auto round = FhsPayload::from_bytes(f.to_bytes());
  EXPECT_EQ(round.clk27_2, 0x03FFFFFFu);
}

TEST(FhsPayloadTest, FromBytesRejectsBadSize) {
  EXPECT_THROW(FhsPayload::from_bytes(std::vector<std::uint8_t>(17)),
               std::invalid_argument);
}

TEST(AclBodyTest, SingleSlotHeaderLayout) {
  const auto body = build_acl_body(PacketType::kDm1, kLlidLmp, true,
                                   {0xAA, 0xBB});
  ASSERT_EQ(body.size(), 3u);
  // LLID=11, FLOW=1, LEN=2 -> 0b00010111.
  EXPECT_EQ(body[0], 0b00010111u);
  const auto parsed = parse_acl_body(PacketType::kDm1, body);
  EXPECT_EQ(parsed.header.llid, kLlidLmp);
  EXPECT_TRUE(parsed.header.flow);
  EXPECT_EQ(parsed.header.length, 2u);
  EXPECT_EQ(parsed.user, (std::vector<std::uint8_t>{0xAA, 0xBB}));
}

TEST(AclBodyTest, MultiSlotLengthSpansTwoBytes) {
  std::vector<std::uint8_t> user(300, 0x42);
  const auto body = build_acl_body(PacketType::kDh5, kLlidStart, false, user);
  EXPECT_EQ(body.size(), 302u);
  const auto parsed = parse_acl_body(PacketType::kDh5, body);
  EXPECT_EQ(parsed.header.length, 300u);
  EXPECT_EQ(parsed.header.llid, kLlidStart);
  EXPECT_FALSE(parsed.header.flow);
  EXPECT_EQ(parsed.user, user);
}

TEST(AclBodyTest, OversizeRejected) {
  EXPECT_THROW(
      build_acl_body(PacketType::kDm1, kLlidStart, true,
                     std::vector<std::uint8_t>(18)),
      std::invalid_argument);
}

TEST(AclBodyTest, ParseRejectsTruncatedBody) {
  EXPECT_THROW(parse_acl_body(PacketType::kDm1, {}), std::invalid_argument);
  // Declared length 5 but only 1 byte present.
  std::vector<std::uint8_t> bad = {static_cast<std::uint8_t>(5u << 3), 0x01};
  EXPECT_THROW(parse_acl_body(PacketType::kDm1, bad), std::invalid_argument);
}

// ---- full composition ----

TEST(ComposeTest, NullPacketIsHeaderOnly) {
  PacketHeader h;
  h.type = PacketType::kNull;
  const auto bits = composed(h, {}, LinkParams{});
  EXPECT_EQ(bits.size(), 54u);
}

TEST(ComposeTest, HeaderSurvivesFecAndHecRoundTrip) {
  PacketHeader h;
  h.lt_addr = 2;
  h.type = PacketType::kPoll;
  h.arqn = true;
  LinkParams params;
  params.check_init = 0x9C;
  const auto bits = composed(h, {}, params);
  const auto decoded = fec13_decode(bits);
  const auto header10 =
      static_cast<std::uint16_t>(test::extract_uint(decoded, 0, 10));
  const auto hec =
      static_cast<std::uint8_t>(test::extract_uint(decoded, 10, 8));
  EXPECT_EQ(PacketHeader::unpack(header10), h);
  EXPECT_EQ(hec_compute10(header10, params.check_init), hec);
}

TEST(ComposeTest, WhiteningScramblesButPreservesLength) {
  PacketHeader h;
  h.type = PacketType::kDh1;
  const auto body = build_acl_body(PacketType::kDh1, kLlidStart, true,
                                   {1, 2, 3, 4});
  LinkParams plain;
  LinkParams whitened;
  whitened.whiten_init = 0x55;
  const auto a = composed(h, body, plain);
  const auto b = composed(h, body, whitened);
  EXPECT_EQ(a.size(), b.size());
  EXPECT_NE(a, b);
}

TEST(ComposeTest, Dm1PayloadIsFecProtected) {
  PacketHeader h;
  h.type = PacketType::kDm1;
  const auto body = build_acl_body(PacketType::kDm1, kLlidStart, true,
                                   std::vector<std::uint8_t>(17, 0xA5));
  const auto bits = composed(h, body, LinkParams{});
  // header(54) + FEC23(20 bytes body + CRC = 160 bits -> 240).
  EXPECT_EQ(bits.size(), 54u + 240u);
  // Decode the payload section and verify CRC.
  const auto payload = test::slice(bits, 54, 240);
  const auto decoded = fec23_decode(payload);
  ASSERT_FALSE(decoded.failed);
  std::vector<std::uint8_t> body_and_crc;
  for (std::size_t i = 0; i + 8 <= decoded.data.size(); i += 8) {
    body_and_crc.push_back(
        static_cast<std::uint8_t>(test::extract_uint(decoded.data, i, 8)));
  }
  body_and_crc.resize(20);  // strip FEC padding
  std::vector<std::uint8_t> just_body(body_and_crc.begin(),
                                      body_and_crc.end() - 2);
  const auto crc = static_cast<std::uint16_t>(
      body_and_crc[18] | (body_and_crc[19] << 8));
  EXPECT_EQ(just_body, body);
  EXPECT_EQ(crc16_compute(just_body, kDefaultCheckInit), crc);
}

TEST(ComposeTest, FhsMustBeExactly18Bytes) {
  PacketHeader h;
  h.type = PacketType::kFhs;
  EXPECT_THROW(composed(h, std::vector<std::uint8_t>(17),
                                         LinkParams{}),
               std::invalid_argument);
  EXPECT_NO_THROW(composed(
      h, std::vector<std::uint8_t>(18), LinkParams{}));
}

TEST(ComposeTest, PayloadOnPollRejected) {
  PacketHeader h;
  h.type = PacketType::kPoll;
  EXPECT_THROW(composed(h, {0x01}, LinkParams{}),
               std::invalid_argument);
}

TEST(ComposeTest, OversizedBodyRejected) {
  PacketHeader h;
  h.type = PacketType::kDh1;
  EXPECT_THROW(
      composed(h, std::vector<std::uint8_t>(31),
                                LinkParams{}),
      std::invalid_argument);
}

// Property sweep over every ACL type: compose -> bit budget respected.
class ComposeAllTypes : public ::testing::TestWithParam<PacketType> {};

TEST_P(ComposeAllTypes, FullPayloadFitsSlotBudget) {
  const PacketType type = GetParam();
  PacketHeader h;
  h.type = type;
  const auto body =
      build_acl_body(type, kLlidStart, true,
                     std::vector<std::uint8_t>(max_user_bytes(type), 0x3C));
  const auto bits = composed(h, body, LinkParams{});
  const std::size_t total = bits.size() + 72;  // plus access code
  EXPECT_EQ(total, air_bits(type, max_user_bytes(type)));
  // Must leave >= 220 us turnaround within the slot allocation.
  EXPECT_LE(total, static_cast<std::size_t>(slots_occupied(type)) * 625u - 220u);
}

INSTANTIATE_TEST_SUITE_P(
    AclTypes, ComposeAllTypes,
    ::testing::Values(PacketType::kDm1, PacketType::kDh1, PacketType::kDm3,
                      PacketType::kDh3, PacketType::kDm5, PacketType::kDh5),
    [](const ::testing::TestParamInfo<PacketType>& info) {
      return to_string(info.param);
    });

}  // namespace
}  // namespace btsc::baseband
