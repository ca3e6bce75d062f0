// Radio -> channel -> Receiver loopback tests for every packet type,
// including noise, whitening, wrong-LAP rejection and early abort.
#include "baseband/receiver.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "baseband/access_code.hpp"
#include "baseband/address.hpp"
#include "baseband/packet.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/environment.hpp"

namespace btsc::baseband {
namespace {

using namespace btsc::sim::literals;
using btsc::phy::ChannelConfig;
using btsc::phy::NoisyChannel;
using btsc::phy::Radio;
using btsc::sim::BitVector;
using btsc::sim::Environment;
using btsc::sim::SimTime;

constexpr std::uint32_t kLap = 0x2C4D5E;
constexpr std::uint8_t kUap = 0x77;

/// The first `n` air bits of kLap's access code: kIdPacketBits for an
/// ID packet, kAccessCodeBits when a header follows.
BitVector lap_access_code(std::size_t n) {
  BitVector bits;
  AccessCode::of(kLap).append_to(bits, n);
  return bits;
}

struct Loop {
  explicit Loop(double ber = 0.0, std::uint64_t seed = 1)
      : env(seed), ch(env, "ch", make_cfg(ber)), tx(env, "tx", ch),
        rx_radio(env, "rxr", ch), rx(env, "rx") {
    rx_radio.set_burst_rx_sink(&rx);
    rx.set_handler([this](const Receiver::Result& r) { results.push_back(r); });
  }

  /// A per-bit channel: the receiver gets one on_sample() per bit.
  static ChannelConfig make_cfg(double ber) {
    ChannelConfig cfg;
    cfg.ber = ber;
    cfg.burst_transport = false;
    return cfg;
  }

  /// Sends a composed packet and runs until delivery.
  void send(const PacketHeader& h, const std::vector<std::uint8_t>& body,
            const LinkParams& params, int freq = 11) {
    BitVector bits = lap_access_code(kAccessCodeBits);
    compose_after_access_code(h, body, params, bits);
    rx_radio.enable_rx(freq);
    tx.transmit(freq, std::move(bits));
    env.run(SimTime::ms(4));
  }

  Environment env;
  NoisyChannel ch;
  Radio tx;
  Radio rx_radio;
  Receiver rx;
  std::vector<Receiver::Result> results;
};

TEST(ReceiverTest, DetectsIdPacket) {
  Loop loop;
  loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                    Receiver::Expect::kIdOnly);
  loop.rx_radio.enable_rx(0);
  loop.tx.transmit(0, lap_access_code(kIdPacketBits));
  loop.env.run(1_ms);
  ASSERT_EQ(loop.results.size(), 1u);
  EXPECT_TRUE(loop.results[0].is_id);
}

TEST(ReceiverTest, IdPacketStartReconstruction) {
  Loop loop;
  loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                    Receiver::Expect::kIdOnly);
  loop.rx_radio.enable_rx(0);
  loop.env.run(100_us);  // transmit at t=100us exactly
  loop.tx.transmit(0, lap_access_code(kIdPacketBits));
  loop.env.run(1_ms);
  ASSERT_EQ(loop.results.size(), 1u);
  EXPECT_EQ(loop.results[0].packet_start, 100_us);
}

TEST(ReceiverTest, PollPacketRoundTrip) {
  Loop loop;
  loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                    Receiver::Expect::kFull);
  PacketHeader h;
  h.lt_addr = 3;
  h.type = PacketType::kPoll;
  h.arqn = true;
  LinkParams params;
  params.check_init = kUap;
  loop.send(h, {}, params);
  ASSERT_EQ(loop.results.size(), 1u);
  const auto& r = loop.results[0];
  EXPECT_TRUE(r.header_ok);
  EXPECT_TRUE(r.payload_ok);
  EXPECT_EQ(r.header, h);
}

TEST(ReceiverTest, FhsRoundTrip) {
  Loop loop;
  loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                    Receiver::Expect::kFull);
  FhsPayload fhs;
  fhs.addr = BdAddr(0xABCDEF, 0x12, 0x3456);
  fhs.clk27_2 = 0x1234567;
  fhs.lt_addr = 5;
  PacketHeader h;
  h.type = PacketType::kFhs;
  LinkParams params;
  params.check_init = kUap;
  loop.send(h, fhs.to_bytes(), params);
  ASSERT_EQ(loop.results.size(), 1u);
  ASSERT_TRUE(loop.results[0].payload_ok);
  EXPECT_EQ(FhsPayload::from_bytes(loop.results[0].payload_body), fhs);
}

// Round-trip each ACL type with and without whitening.
struct AclCase {
  PacketType type;
  bool whiten;
};

class ReceiverAclRoundTrip : public ::testing::TestWithParam<AclCase> {};

TEST_P(ReceiverAclRoundTrip, DeliversUserBytes) {
  const auto [type, whiten] = GetParam();
  Loop loop;
  LinkParams params;
  params.check_init = kUap;
  if (whiten) params.whiten_init = 0x5D;
  loop.rx.configure(sync_bits(kLap), kUap, params.whiten_init,
                    Receiver::Expect::kFull);
  std::vector<std::uint8_t> user(max_user_bytes(type));
  for (std::size_t i = 0; i < user.size(); ++i) {
    user[i] = static_cast<std::uint8_t>(i * 13 + 1);
  }
  PacketHeader h;
  h.lt_addr = 1;
  h.type = type;
  h.seqn = true;
  loop.send(h, build_acl_body(type, kLlidStart, true, user), params);
  ASSERT_EQ(loop.results.size(), 1u);
  const auto& r = loop.results[0];
  ASSERT_TRUE(r.header_ok);
  ASSERT_TRUE(r.payload_ok) << to_string(type);
  const auto parsed = parse_acl_body(type, r.payload_body);
  EXPECT_EQ(parsed.user, user);
}

INSTANTIATE_TEST_SUITE_P(
    Types, ReceiverAclRoundTrip,
    ::testing::Values(AclCase{PacketType::kDm1, false},
                      AclCase{PacketType::kDh1, false},
                      AclCase{PacketType::kDm3, true},
                      AclCase{PacketType::kDh3, true},
                      AclCase{PacketType::kDm5, true},
                      AclCase{PacketType::kDh5, false},
                      AclCase{PacketType::kDm1, true},
                      AclCase{PacketType::kDh1, true}),
    [](const ::testing::TestParamInfo<AclCase>& info) {
      return std::string(to_string(info.param.type)) +
             (info.param.whiten ? "_whitened" : "_plain");
    });

TEST(ReceiverTest, WrongLapNotReceived) {
  Loop loop;
  loop.rx.configure(sync_bits(0x111111), kUap, std::nullopt,
                    Receiver::Expect::kFull);
  PacketHeader h;
  h.type = PacketType::kPoll;
  LinkParams params;
  params.check_init = kUap;
  loop.send(h, {}, params);  // sent with kLap access code
  EXPECT_TRUE(loop.results.empty());
  EXPECT_EQ(loop.rx.syncs_detected(), 0u);
}

TEST(ReceiverTest, WrongUapFailsHec) {
  Loop loop;
  loop.rx.configure(sync_bits(kLap), static_cast<std::uint8_t>(kUap + 1),
                    std::nullopt, Receiver::Expect::kFull);
  PacketHeader h;
  h.type = PacketType::kPoll;
  LinkParams params;
  params.check_init = kUap;
  loop.send(h, {}, params);
  ASSERT_EQ(loop.results.size(), 1u);
  EXPECT_FALSE(loop.results[0].header_ok);
  EXPECT_EQ(loop.rx.hec_failures(), 1u);
}

TEST(ReceiverTest, HeaderHookAbortsForeignPacket) {
  Loop loop;
  loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                    Receiver::Expect::kFull);
  loop.rx.set_header_hook(
      [](const PacketHeader& h) { return h.lt_addr == 2; });
  PacketHeader h;
  h.lt_addr = 1;  // not ours
  h.type = PacketType::kDh1;
  LinkParams params;
  params.check_init = kUap;
  loop.send(h, build_acl_body(PacketType::kDh1, kLlidStart, true, {1, 2}),
            params);
  EXPECT_TRUE(loop.results.empty());  // aborted after the header
  EXPECT_FALSE(loop.rx.assembling());
}

TEST(ReceiverTest, DmPacketSurvivesModerateNoise) {
  // FEC 2/3 corrects one error per 15-bit block: at BER 1/100 a DM1
  // almost always survives.
  int ok = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Loop loop(1.0 / 100.0, seed);
    LinkParams params;
    params.check_init = kUap;
    loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                      Receiver::Expect::kFull);
    PacketHeader h;
    h.type = PacketType::kDm1;
    loop.send(h, build_acl_body(PacketType::kDm1, kLlidStart, true,
                                {1, 2, 3, 4, 5}),
              params);
    if (!loop.results.empty() && loop.results[0].payload_ok) ++ok;
  }
  EXPECT_GE(ok, 14) << "DM1 should usually survive BER=1/100";
}

TEST(ReceiverTest, DhPacketDiesUnderHeavyNoise) {
  // DH payloads have no FEC: at BER 1/30 a 27-byte DH1 payload almost
  // surely takes an error and fails CRC.
  int ok = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Loop loop(1.0 / 30.0, seed);
    LinkParams params;
    params.check_init = kUap;
    loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                      Receiver::Expect::kFull);
    PacketHeader h;
    h.type = PacketType::kDh1;
    loop.send(h, build_acl_body(PacketType::kDh1, kLlidStart, true,
                                std::vector<std::uint8_t>(27, 0xA5)),
              params);
    if (!loop.results.empty() && loop.results[0].payload_ok) ++ok;
  }
  EXPECT_LE(ok, 2);
}

TEST(ReceiverTest, CollisionGarblesPacket) {
  Environment env(7);
  NoisyChannel ch(env, "ch", Loop::make_cfg(0.0));
  Radio t1(env, "t1", ch), t2(env, "t2", ch), rxr(env, "rxr", ch);
  Receiver rx(env, "rx");
  rxr.set_burst_rx_sink(&rx);
  std::vector<Receiver::Result> results;
  rx.set_handler([&](const Receiver::Result& r) { results.push_back(r); });
  rx.configure(sync_bits(kLap), kUap, std::nullopt, Receiver::Expect::kFull);

  PacketHeader h;
  h.type = PacketType::kPoll;
  LinkParams params;
  params.check_init = kUap;
  BitVector bits = lap_access_code(kAccessCodeBits);
  compose_after_access_code(h, {}, params, bits);
  rxr.enable_rx(0);
  t1.transmit(0, bits);
  t2.transmit(0, BitVector(200, true));  // colliding carrier
  env.run(1_ms);
  // Either nothing is detected or the header fails; never a clean packet.
  for (const auto& r : results) EXPECT_FALSE(r.header_ok && r.payload_ok);
}

TEST(ReceiverTest, ResetAbandonsAssembly) {
  Loop loop;
  loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                    Receiver::Expect::kFull);
  PacketHeader h;
  h.type = PacketType::kDh1;
  LinkParams params;
  params.check_init = kUap;
  BitVector bits = lap_access_code(kAccessCodeBits);
  compose_after_access_code(
      h, build_acl_body(PacketType::kDh1, kLlidStart, true, {1, 2, 3}),
      params, bits);
  loop.rx_radio.enable_rx(11);
  loop.tx.transmit(11, std::move(bits));
  loop.env.run(100_us);  // mid-packet
  EXPECT_TRUE(loop.rx.assembling());
  // Reconfiguring mid-packet (what the link controller does on every
  // state change) abandons the assembly and restarts the sync search.
  loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                    Receiver::Expect::kFull);
  EXPECT_FALSE(loop.rx.assembling());
  loop.env.run(1_ms);
  EXPECT_TRUE(loop.results.empty());
}

TEST(ReceiverTest, CarrierSamplesTrackSignalPresence) {
  Loop loop;
  loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                    Receiver::Expect::kIdOnly);
  loop.rx_radio.enable_rx(5);
  loop.env.run(100_us);
  EXPECT_EQ(loop.rx.carrier_samples(), 0u);  // idle channel
  loop.tx.transmit(5, BitVector(50, true));
  loop.env.run(100_us);
  EXPECT_GE(loop.rx.carrier_samples(), 49u);
}

TEST(ReceiverTest, BackToBackPackets) {
  Loop loop;
  LinkParams params;
  params.check_init = kUap;
  loop.rx.configure(sync_bits(kLap), kUap, std::nullopt,
                    Receiver::Expect::kFull);
  PacketHeader h;
  h.type = PacketType::kPoll;
  BitVector bits = lap_access_code(kAccessCodeBits);
  compose_after_access_code(h, {}, params, bits);
  loop.rx_radio.enable_rx(11);
  loop.tx.transmit(11, bits);
  loop.env.run(1_ms);
  loop.tx.transmit(11, bits);
  loop.env.run(1_ms);
  ASSERT_EQ(loop.results.size(), 2u);
  EXPECT_TRUE(loop.results[0].header_ok);
  EXPECT_TRUE(loop.results[1].header_ok);
}

}  // namespace
}  // namespace btsc::baseband
