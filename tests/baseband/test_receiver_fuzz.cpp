// Receiver robustness under adversarial bit streams.
//
// Property: no input bit stream may crash the receiver, leave it in a
// wedged state, or produce a packet that claims to be clean
// (header_ok && payload_ok) without actually matching a transmitted
// packet's checksums. These tests drive the receiver directly with
// corrupted and truncated packets and with pure noise.
#include <gtest/gtest.h>

#include <optional>

#include "baseband/access_code.hpp"
#include "baseband/packet.hpp"
#include "baseband/receiver.hpp"
#include "phy/logic4.hpp"
#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "support/bits.hpp"

namespace btsc::baseband {
namespace {

constexpr std::uint32_t kLap = 0x6F00D5;
constexpr std::uint8_t kUap = 0x2B;

struct Fuzzer {
  explicit Fuzzer(std::uint64_t seed) : env(seed) {
    rx.configure(sync_bits(kLap), kUap, 0x5A, Receiver::Expect::kFull);
    rx.set_handler([this](const Receiver::Result& r) { results.push_back(r); });
  }

  /// Feeds a bit vector, one sample per microsecond of simulated time.
  void feed(const sim::BitVector& bits) {
    for (std::size_t i = 0; i < bits.size(); ++i) {
      rx.on_sample(phy::from_bit(bits[i]));
      env.run(sim::SimTime::us(1));
    }
  }

  sim::BitVector make_packet(PacketType type, std::size_t user) {
    PacketHeader h;
    h.lt_addr = 1;
    h.type = type;
    LinkParams params;
    params.check_init = kUap;
    params.whiten_init = 0x5A;
    sim::BitVector bits;
    AccessCode::of(kLap).append_to(bits, kAccessCodeBits);
    if (has_payload(type)) {
      compose_after_access_code(
          h, build_acl_body(type, kLlidStart, true,
                            std::vector<std::uint8_t>(user, 0x77)),
          params, bits);
    } else {
      compose_after_access_code(h, {}, params, bits);
    }
    return bits;
  }

  sim::Environment env;
  Receiver rx{env, "fuzz"};
  std::vector<Receiver::Result> results;
};

TEST(ReceiverFuzz, PureNoiseNeverYieldsCleanPacket) {
  Fuzzer f(1);
  sim::Rng rng(2);
  sim::BitVector noise;
  for (int i = 0; i < 200000; ++i) noise.push_back(rng.bernoulli(0.5));
  f.feed(noise);
  for (const auto& r : f.results) {
    EXPECT_FALSE(r.header_ok && r.payload_ok && !r.is_id)
        << "random noise decoded as a clean packet";
  }
}

// Corrupt a clean packet at every severity: the receiver must either
// reject it (bad HEC/CRC/FEC) or, at low corruption, recover it exactly.
class ReceiverCorruption : public ::testing::TestWithParam<int> {};

TEST_P(ReceiverCorruption, NeverAcceptsCorruptPayloadSilently) {
  const int flips = GetParam();
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Fuzzer f(seed);
    sim::Rng rng(seed * 131 + static_cast<std::uint64_t>(flips));
    auto bits = f.make_packet(PacketType::kDh1, 10);
    for (int k = 0; k < flips; ++k) {
      test::flip_bit(bits, rng.uniform(0, bits.size() - 1));
    }
    f.feed(bits);
    // Trailing silence flushes any half-assembled state.
    f.feed(sim::BitVector(700));
    for (const auto& r : f.results) {
      if (r.header_ok && r.payload_ok && !r.payload_body.empty()) {
        // Accepted: the payload must be the original, bit-exact.
        const auto parsed = parse_acl_body(PacketType::kDh1, r.payload_body);
        EXPECT_EQ(parsed.user, std::vector<std::uint8_t>(10, 0x77))
            << flips << " flips produced a wrong accepted payload";
      }
    }
    EXPECT_FALSE(f.rx.assembling()) << "receiver wedged after corruption";
  }
}

INSTANTIATE_TEST_SUITE_P(FlipCounts, ReceiverCorruption,
                         ::testing::Values(0, 1, 2, 4, 8, 16, 40, 120));

TEST(ReceiverFuzz, TruncatedPacketDoesNotWedge) {
  for (std::size_t keep : {80u, 100u, 130u, 200u, 300u}) {
    Fuzzer f(keep);
    auto bits = f.make_packet(PacketType::kDm1, 17);
    ASSERT_GT(bits.size(), keep);
    f.feed(test::slice(bits, 0, keep));
    // Medium goes idle ('Z' reads as 0); a full slot of silence must
    // flush the assembly via checksum failure...
    f.feed(sim::BitVector(1500));
    EXPECT_FALSE(f.rx.assembling());
    // ...and a subsequent clean packet must still be received.
    f.results.clear();
    f.feed(f.make_packet(PacketType::kDm1, 17));
    bool clean = false;
    for (const auto& r : f.results) clean |= (r.header_ok && r.payload_ok);
    EXPECT_TRUE(clean) << "receiver did not recover after truncation at "
                       << keep;
  }
}

TEST(ReceiverFuzz, LengthFieldCorruptionIsBounded) {
  // Flip bits specifically in the payload-header region: the receiver
  // must never read more bits than the maximum packet length implies.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Fuzzer f(seed);
    auto bits = f.make_packet(PacketType::kDh1, 5);
    sim::Rng rng(seed);
    // Payload header sits right after access code (72) + header (54).
    for (int k = 0; k < 3; ++k) {
      test::flip_bit(bits, 126 + rng.uniform(0, 7));
    }
    f.feed(bits);
    f.feed(sim::BitVector(3000));
    EXPECT_FALSE(f.rx.assembling());
  }
}

TEST(ReceiverFuzz, CollisionSymbolsDoNotCrash) {
  Fuzzer f(3);
  sim::Rng rng(4);
  for (int i = 0; i < 50000; ++i) {
    const auto roll = rng.uniform(0, 3);
    f.rx.on_sample(static_cast<phy::Logic4>(roll));
    f.env.run(sim::SimTime::us(1));
  }
  for (const auto& r : f.results) {
    EXPECT_FALSE(r.header_ok && r.payload_ok && !r.is_id);
  }
}

TEST(ReceiverFuzz, ReconfigureMidPacketResets) {
  Fuzzer f(5);
  auto bits = f.make_packet(PacketType::kDh3, 100);
  f.feed(test::slice(bits, 0, 400));
  EXPECT_TRUE(f.rx.assembling());
  f.rx.configure(sync_bits(0x123456), 0x00, std::nullopt,
                 Receiver::Expect::kIdOnly);
  EXPECT_FALSE(f.rx.assembling());
  // The old packet's continuation must not trigger anything.
  f.results.clear();
  f.feed(test::slice(bits, 400, bits.size() - 400));
  EXPECT_TRUE(f.results.empty());
}

}  // namespace
}  // namespace btsc::baseband
