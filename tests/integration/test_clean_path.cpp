// Runs carry the packet: a run nothing can corrupt, or one whose flips
// leave the framing intact, is delivered to a matching receiver from its
// logical form (and its error pattern), with no composing and no HEC or
// bit-by-bit FEC and CRC work. These tests guard that the fast path is
// really taken where it should be (the coexistence and throughput
// scaffolds at BER 0, noisy packets), that every way of leaving it -- a
// late enable, a foreign access code, a rejecting header hook, a
// reconfiguration, contention, an abort, a checkpoint, flips that break
// a header triple, the payload length or an early FEC block, or that
// suppress or move the sync -- gives exactly the per-bit reference's
// results and counters, and which reason the receiver's telemetry
// records for each.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseband/access_code.hpp"
#include "baseband/crc.hpp"
#include "baseband/device.hpp"
#include "baseband/packet.hpp"
#include "baseband/receiver.hpp"
#include "baseband/tx_packet.hpp"
#include "core/coexistence.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "core/traffic.hpp"
#include "phy/air_packet.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/environment.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"

namespace btsc::baseband {
namespace {

using namespace btsc::sim::literals;
using sim::SimTime;
using Stats = Receiver::CleanPathStats;

constexpr std::uint32_t kLap = 0x2A613C;
constexpr std::uint32_t kOtherLap = 0x5B0E17;
constexpr std::uint8_t kUap = 0x47;
constexpr std::uint8_t kWhiten = 0x55;
constexpr int kFreq = 11;

std::uint64_t receptions(const Stats& s) { return s.clean + s.air; }

// ---- scaffolds at BER 0 ------------------------------------------------------

Stats add(Stats a, const Stats& b) {
  a.clean += b.clean;
  a.noisy += b.noisy;
  a.air += b.air;
  a.air_bits += b.air_bits;
  a.mismatch += b.mismatch;
  a.offset += b.offset;
  a.header_flips += b.header_flips;
  a.length_flips += b.length_flips;
  a.early_fec += b.early_fec;
  a.hook += b.hook;
  a.interrupted += b.interrupted;
  return a;
}

TEST(CleanPath, CoexistenceScaffoldTakesCleanPath) {
  auto net = core::coexistence_warmup(2030);
  Stats before;
  for (int p = 0; p < 2; ++p) {
    before = add(before, net->master(p).receiver().clean_path_stats());
    before = add(before, net->slave(p).receiver().clean_path_stats());
  }
  core::CoexistenceRunConfig cfg;
  cfg.measure_slots = 4000;
  core::run_coexistence_from(*net, 4, cfg);
  Stats after;
  for (int p = 0; p < 2; ++p) {
    after = add(after, net->master(p).receiver().clean_path_stats());
    after = add(after, net->slave(p).receiver().clean_path_stats());
  }
  const std::uint64_t clean = after.clean - before.clean;
  const std::uint64_t total = receptions(after) - receptions(before);
  ASSERT_GT(total, 1000u);
  EXPECT_GE(static_cast<double>(clean), 0.99 * static_cast<double>(total))
      << clean << " of " << total << " packets took the clean path";
}

TEST(CleanPath, ThroughputScaffoldTakesCleanPath) {
  for (const PacketType type : {PacketType::kDm1, PacketType::kDh3,
                                PacketType::kDm5, PacketType::kDh5}) {
    SCOPED_TRACE(to_string(type));
    auto warm = core::throughput_warmup(type, 17);
    core::BluetoothSystem& sys = *warm.system;
    const Stats m0 = sys.master().receiver().clean_path_stats();
    const Stats s0 = sys.slave(0).receiver().clean_path_stats();
    core::ThroughputConfig cfg;
    cfg.measure_slots = 1000;
    core::run_throughput_from(sys, type, 0.0, cfg);
    const Stats m1 = sys.master().receiver().clean_path_stats();
    const Stats s1 = sys.slave(0).receiver().clean_path_stats();
    const std::uint64_t clean = (m1.clean - m0.clean) + (s1.clean - s0.clean);
    const std::uint64_t total = receptions(m1) - receptions(m0) +
                                receptions(s1) - receptions(s0);
    ASSERT_GT(total, 100u);
    EXPECT_GE(static_cast<double>(clean), 0.99 * static_cast<double>(total))
        << clean << " of " << total << " packets took the clean path";
  }
}

// ---- one link: every exit from the clean path against per-bit --------------

/// A transmitter radio, a receiving radio with its Receiver, and a third
/// radio to contend with, on one channel.
struct Link {
  sim::Environment env{7};
  phy::NoisyChannel ch;
  phy::Radio tx{env, "tx", ch};
  phy::Radio rx_radio{env, "rx", ch};
  phy::Radio other{env, "other", ch};
  Receiver rx{env, "rec"};
  TxPacket packet;
  TxPacket other_packet;
  std::vector<std::string> log;

  Link(bool burst, double ber)
      : ch(env, "ch", phy::ChannelConfig{.ber = ber, .burst_transport = burst}) {
    rx_radio.set_burst_rx_sink(&rx);
    rx.set_transport_hooks([this] { rx_radio.rx_catch_up(); },
                           [this] { rx_radio.rx_state_changed(); });
    rx.set_handler([this](const Receiver::Result& r) {
      std::ostringstream os;
      os << env.now().as_ns() << " id" << r.is_id << " h" << r.header_ok
         << " p" << r.payload_ok << " f" << r.fec_failed << " "
         << r.header.pack() << " @" << r.packet_start.as_ns() << " [";
      for (std::uint8_t b : r.payload_body) os << int{b} << ",";
      os << "]";
      log.push_back(os.str());
    });
    configure(kLap, kUap, kWhiten);
  }

  void configure(std::uint32_t lap, std::uint8_t check,
                 std::optional<std::uint8_t> whiten) {
    rx.configure(sync_bits(lap), check, whiten, Receiver::Expect::kFull);
  }

  /// Fills `p` with a `type` packet carrying `user` bytes.
  static void fill(TxPacket& p, std::uint32_t lap, PacketType type,
                   std::size_t user) {
    LinkParams params;
    params.check_init = kUap;
    params.whiten_init = kWhiten;
    PacketHeader h;
    h.type = type;
    h.lt_addr = 1;
    std::vector<std::uint8_t> body;
    if (type != PacketType::kNull && type != PacketType::kPoll) {
      std::vector<std::uint8_t> data(user);
      for (std::size_t i = 0; i < user; ++i) {
        data[i] = static_cast<std::uint8_t>(i * 37 + 5);
      }
      body = build_acl_body(type, kLlidStart, true, data);
    }
    p.set(AccessCode::of(lap), h, body, params);
  }

  /// What both transports must agree on.
  std::string outcome() {
    std::ostringstream os;
    for (const auto& l : log) os << l << "\n";
    os << "carrier " << rx.carrier_samples() << " syncs "
       << rx.syncs_detected() << " hec " << rx.hec_failures() << " crc "
       << rx.crc_failures() << " fec " << rx.fec_failures() << " driven "
       << ch.bits_driven() << " flipped " << ch.bits_flipped()
       << " collisions " << ch.collision_samples() << " sampled "
       << rx_radio.bits_sampled() << " rng " << env.rng().next();
    sim::SnapshotWriter w;
    rx.save_state(w);
    const std::vector<std::uint8_t> bytes = w.take();
    os << " recv";
    for (std::uint8_t b : bytes) os << " " << int{b};
    return os.str();
  }
};

/// Runs `script` on a burst link and on a per-bit link and requires the
/// same outcome; returns the burst link's receiver telemetry.
Stats check_against_per_bit(double ber,
                            const std::function<void(Link&)>& script) {
  Link burst(true, ber);
  Link ref(false, ber);
  script(burst);
  script(ref);
  EXPECT_EQ(burst.outcome(), ref.outcome());
  return burst.rx.clean_path_stats();
}

/// Starts `link.packet` at 1 ms on kFreq with the receiver listening.
void send(Link& l, PacketType type, std::size_t user,
          std::uint32_t lap = kLap) {
  Link::fill(l.packet, lap, type, user);
  l.rx_radio.enable_rx(kFreq);
  l.env.run(1_ms);
  l.tx.transmit(kFreq, l.packet);
}

TEST(CleanPath, CleanPacketIsTakenAndMatchesPerBit) {
  for (const PacketType type :
       {PacketType::kPoll, PacketType::kDm1, PacketType::kDh1,
        PacketType::kDm3, PacketType::kDh5}) {
    SCOPED_TRACE(to_string(type));
    const Stats s = check_against_per_bit(0.0, [&](Link& l) {
      send(l, type, max_user_bytes(type) / 2);
      l.env.run(5_ms);
    });
    EXPECT_EQ(s.clean, 1u);
    EXPECT_EQ(s.air + s.interrupted + s.mismatch, 0u);
  }
}

TEST(CleanPath, LateEnabledReceiver) {
  // Two bits late the correlator still fires at air bit 67 (64 sync
  // bits seen): taken. Twenty bits late it never fires.
  for (const int late_us : {2, 20}) {
    SCOPED_TRACE(late_us);
    const Stats s = check_against_per_bit(0.0, [&](Link& l) {
      Link::fill(l.packet, kLap, PacketType::kDm1, 10);
      l.env.run(1_ms);
      l.tx.transmit(kFreq, l.packet);
      l.env.run(SimTime::us(late_us));
      l.rx_radio.enable_rx(kFreq);
      l.env.run(5_ms);
    });
    EXPECT_EQ(s.clean, late_us == 2 ? 1u : 0u);
  }
}

TEST(CleanPath, ForeignAccessCodeReadsBits) {
  // Another LAP: the correlator searches the whole run (composed) and
  // never fires.
  Stats s = check_against_per_bit(0.0, [&](Link& l) {
    send(l, PacketType::kDh3, 100, kOtherLap);
    l.env.run(5_ms);
  });
  EXPECT_EQ(receptions(s), 0u);
  // Same LAP, other check init: synced but not taken; the HEC fails.
  s = check_against_per_bit(0.0, [&](Link& l) {
    l.configure(kLap, kUap ^ 0x11, kWhiten);
    send(l, PacketType::kDh3, 100);
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.mismatch, 1u);
  EXPECT_EQ(s.clean, 0u);
}

TEST(CleanPath, RejectingHeaderHookLeavesTheTakenPacket) {
  const Stats s = check_against_per_bit(0.0, [&](Link& l) {
    l.rx.set_header_hook([](const PacketHeader&) { return false; });
    send(l, PacketType::kDm5, 200);
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.hook, 1u);
  EXPECT_EQ(receptions(s), 0u);
}

TEST(CleanPath, ReconfigureMidRun) {
  // Inside the header, and inside the payload, whose samples have
  // advanced the old machine's whitener (kept across the reset).
  for (const int at_us : {100, 500}) {
    SCOPED_TRACE(at_us);
    const Stats s = check_against_per_bit(0.0, [&](Link& l) {
      send(l, PacketType::kDh5, 300);
      l.env.run(SimTime::us(at_us));
      l.configure(kLap, kUap, kWhiten);
      l.env.run(5_ms);
    });
    EXPECT_EQ(receptions(s), 0u);
    EXPECT_EQ(s.interrupted, 1u);
  }
}

TEST(CleanPath, ReconfigureFromTheHandlerOrHook) {
  // The result handler re-arms the receiver when a whitened DM5 it took
  // is delivered, or the header hook re-arms it and rejects the packet
  // (as a link controller moving to its next state does). The packet is
  // over for the machine by then: none of its samples reach the fresh
  // one, and the whitener the reset keeps stepped once per data bit.
  for (const bool from_hook : {false, true}) {
    SCOPED_TRACE(from_hook);
    const Stats s = check_against_per_bit(0.0, [&](Link& l) {
      if (from_hook) {
        l.rx.set_header_hook([&l](const PacketHeader&) {
          l.configure(kLap, kUap, kWhiten);
          return false;
        });
      } else {
        l.rx.set_handler([&l](const Receiver::Result& r) {
          l.log.push_back(std::to_string(l.env.now().as_ns()) + " p" +
                          std::to_string(r.payload_ok) + " " +
                          std::to_string(r.payload_body.size()));
          l.configure(kLap, kUap, kWhiten);
        });
      }
      send(l, PacketType::kDm5, 200);
      l.env.run(5_ms);
    });
    EXPECT_EQ(s.clean, from_hook ? 0u : 1u);
    EXPECT_EQ(s.air, 0u);
  }
}

TEST(CleanPath, ContentionMidRun) {
  const Stats s = check_against_per_bit(0.0, [&](Link& l) {
    send(l, PacketType::kDh5, 300);
    l.env.run(SimTime::us(400));  // inside the payload
    Link::fill(l.other_packet, kOtherLap, PacketType::kDm1, 5);
    l.other.transmit(kFreq, l.other_packet);
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.interrupted, 1u);
  EXPECT_EQ(s.clean, 0u);
}

TEST(CleanPath, AbortMidRun) {
  const Stats s = check_against_per_bit(0.0, [&](Link& l) {
    send(l, PacketType::kDm3, 100);
    l.env.run(SimTime::us(300));
    l.tx.abort_tx();
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.interrupted, 1u);
  EXPECT_EQ(s.clean, 0u);
}

TEST(CleanPath, NoiseInsideOrBeyondTheRun) {
  // BER 1/100 puts flips inside a DH5 run: the medium shows the packet
  // with its flips, which leave this one's framing intact, so the
  // receiver takes it with its error pattern. At 1e-9 the first gap
  // exceeds the run: clean.
  Stats s = check_against_per_bit(1.0 / 100, [&](Link& l) {
    send(l, PacketType::kDh5, 300);
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.clean, 1u);
  EXPECT_EQ(s.noisy, 1u);
  EXPECT_EQ(s.air_bits, 0u);
  s = check_against_per_bit(1e-9, [&](Link& l) {
    send(l, PacketType::kDh5, 300);
    l.env.run(5_ms);
  });
  EXPECT_EQ(s.clean, 1u);
  EXPECT_EQ(s.noisy, 0u);
}

TEST(CleanPath, CheckpointOfATakenPacketSavesThePerBitMachine) {
  // Mid-payload, after the radio has caught up, the receiver section of
  // the snapshot is byte-identical to the per-bit reference's; the taken
  // packet stays taken and completes on the clean path.
  std::vector<std::uint8_t> bytes[2];
  for (int mode = 0; mode < 2; ++mode) {
    Link l(mode == 0, 0.0);
    send(l, PacketType::kDm5, 200);
    l.env.run(SimTime::ns(900'100));
    l.rx_radio.rx_catch_up();
    ASSERT_TRUE(l.rx.assembling());
    sim::SnapshotWriter w;
    l.rx.save_state(w);
    bytes[mode] = w.take();
    l.env.run(5_ms);
    ASSERT_EQ(l.log.size(), 1u);
    if (mode == 0) {
      EXPECT_EQ(l.rx.clean_path_stats().clean, 1u);
      EXPECT_EQ(l.rx.clean_path_stats().interrupted, 0u);
    }
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(CleanPath, CheckpointOfANoisyTakenPacketSavesThePerBitMachine) {
  // A DM5 at BER 1/100, taken with its flips: mid-payload the receiver
  // section is byte-identical to the per-bit reference's (the save
  // replays the flipped bits into a copy of the machine), and the packet
  // still completes on the taken path.
  std::vector<std::uint8_t> bytes[2];
  std::string outcome[2];
  for (int mode = 0; mode < 2; ++mode) {
    Link l(mode == 0, 1.0 / 100);
    send(l, PacketType::kDm5, 200);
    l.env.run(SimTime::ns(900'100));
    l.rx_radio.rx_catch_up();
    ASSERT_TRUE(l.rx.assembling());
    sim::SnapshotWriter w;
    l.rx.save_state(w);
    bytes[mode] = w.take();
    l.env.run(5_ms);
    ASSERT_EQ(l.log.size(), 1u);
    outcome[mode] = l.outcome();
    if (mode == 0) {
      EXPECT_EQ(l.rx.clean_path_stats().noisy, 1u);
      EXPECT_EQ(l.rx.clean_path_stats().interrupted, 0u);
    }
  }
  EXPECT_EQ(bytes[0], bytes[1]);
  EXPECT_EQ(outcome[0], outcome[1]);
}

// ---- chosen flips: a receiver fed a flipped packet as a burst run --------

/// A receiver fed samples, logging every delivery.
struct SinkRig {
  sim::Environment env{3};
  Receiver rx{env, "rx"};
  std::vector<std::string> log;

  SinkRig() {
    rx.configure(sync_bits(kLap), kUap, kWhiten, Receiver::Expect::kFull);
    rx.set_handler([this](const Receiver::Result& r) {
      std::ostringstream os;
      os << "id" << r.is_id << " h" << r.header_ok << " p" << r.payload_ok
         << " f" << r.fec_failed << " " << r.header.pack() << " [";
      for (std::uint8_t b : r.payload_body) os << int{b} << ",";
      os << "]";
      log.push_back(os.str());
    });
  }

  /// Deliveries, counters and the checkpoint section.
  std::string outcome() const {
    std::ostringstream os;
    for (const auto& l : log) os << l << "\n";
    os << "syncs " << rx.syncs_detected() << " hec " << rx.hec_failures()
       << " crc " << rx.crc_failures() << " fec " << rx.fec_failures()
       << " assembling " << rx.assembling() << " recv";
    sim::SnapshotWriter w;
    rx.save_state(w);
    for (std::uint8_t b : w.take()) os << " " << int{b};
    return os.str();
  }
};

/// `type` with `user` bytes (or the 18 FHS bytes), flipped at `flips`,
/// fed as a burst run the way the radio feeds one -- probe, consume the
/// quiet span, run the effect sample through on_run_sample() -- and,
/// to a second receiver, as its air bits one sample at a time. Both
/// must agree at sample `stop` (if inside the packet) and at the end;
/// returns the burst receiver's telemetry, and its deliveries through
/// `log` if given.
Stats flipped_against_per_bit(PacketType type, std::size_t user,
                              std::vector<std::uint32_t> flips,
                              std::size_t stop = 0,
                              std::vector<std::string>* log = nullptr) {
  TxPacket packet;
  if (type == PacketType::kFhs) {
    PacketHeader h;
    h.type = type;
    LinkParams params;
    params.check_init = kUap;
    params.whiten_init = kWhiten;
    std::vector<std::uint8_t> body(kFhsBytes);
    for (std::size_t i = 0; i < body.size(); ++i) {
      body[i] = static_cast<std::uint8_t>(i * 29 + 3);
    }
    packet.set(AccessCode::of(kLap), h, body, params);
  } else {
    Link::fill(packet, kLap, type, user);
  }
  std::sort(flips.begin(), flips.end());
  flips.erase(std::unique(flips.begin(), flips.end()), flips.end());
  phy::FlippedPacket view;
  view.show(packet);
  view.positions() = flips;
  const std::size_t n = packet.size();
  SinkRig burst;
  SinkRig ref;
  std::size_t pos = 0;
  std::size_t bit = 0;
  for (const std::size_t limit : {std::min(stop, n), n}) {
    while (pos < limit) {
      const std::size_t q = burst.rx.quiet_prefix(&view, pos, limit - pos);
      burst.rx.consume_quiet(&view, pos, q);
      pos += q;
      if (pos < limit) burst.rx.on_run_sample(&view, pos++);
    }
    const sim::BitVector& bits = view.bits();
    for (; bit < limit; ++bit) ref.rx.on_sample(phy::from_bit(bits[bit]));
    EXPECT_EQ(burst.outcome(), ref.outcome()) << "after sample " << limit;
  }
  if (log != nullptr) *log = burst.log;
  return burst.rx.clean_path_stats();
}

constexpr std::uint32_t kHeader = kAccessCodeBits;  // first header bit
constexpr std::uint32_t kPayload = kAccessCodeBits + kHeaderCodedBits;

TEST(CleanPath, FlipsThatLeaveTheFramingAreTaken) {
  // One flip per header triple, access-code flips the correlator
  // tolerates, a corrected FEC block, a DH payload bit outside the
  // length field, a failed DM block after the length resolved: each is
  // taken with its error pattern and matches per-bit, mid-payload too.
  struct Flips {
    PacketType type;
    std::vector<std::uint32_t> at;
  };
  const std::vector<Flips> cases = {
      {PacketType::kPoll, {kHeader, kHeader + 4, kHeader + 53}},
      {PacketType::kDm5, {5, 20, 40, 66, 69, kHeader + 1, kPayload + 3}},
      {PacketType::kDh5, {kPayload, kPayload + 2, kPayload + 900}},
      {PacketType::kDh3, {kPayload + 8 * 50 + 5}},
      {PacketType::kDm1, {kPayload + 15, kPayload + 16, kPayload + 40}},
      {PacketType::kDm3, {kPayload + 30, kPayload + 31, kPayload + 32}},
      {PacketType::kFhs, {kPayload + 1, kPayload + 2}},
  };
  for (const Flips& c : cases) {
    SCOPED_TRACE(to_string(c.type));
    const std::size_t user = max_user_bytes(c.type) / 2;
    const Stats s =
        flipped_against_per_bit(c.type, user, c.at, kPayload + 60);
    EXPECT_EQ(s.clean, 1u);
    EXPECT_EQ(s.noisy, 1u);
    EXPECT_EQ(s.air + s.interrupted, 0u);
  }
}

TEST(CleanPath, AnErrorTheCrcCannotSeeIsDeliveredAsDecoded) {
  // Errors the CRC does not see: body errors forming the generator
  // g = x^16 + x^12 + x^5 + 1 (body bit i is the coefficient of
  // x^(L - 1 - i)), and one body error with the CRC field flipped by
  // exactly the change it makes (bit k of the field follows the body).
  // The bit path delivers the corrupted body with payload_ok, and so
  // must the taken packet.
  const std::uint32_t body_bits = 8 * (2 + 100);  // DH3 header + 100 B
  std::vector<std::uint32_t> in_body;
  for (const std::uint32_t degree : {0u, 5u, 12u, 16u}) {
    in_body.push_back(kPayload + body_bits - 1 - degree);
  }
  std::vector<std::uint32_t> with_crc = {kPayload + 400};
  const std::uint16_t change = crc16_single_bit(body_bits - 1 - 400);
  for (std::uint32_t k = 0; k < 16; ++k) {
    if ((change >> k) & 1u) with_crc.push_back(kPayload + body_bits + k);
  }
  for (const auto& flips : {in_body, with_crc}) {
    std::vector<std::string> log;
    const Stats s =
        flipped_against_per_bit(PacketType::kDh3, 100, flips, 0, &log);
    EXPECT_EQ(s.noisy, 1u);
    ASSERT_EQ(log.size(), 1u);
    EXPECT_NE(log[0].find(" p1 "), std::string::npos) << log[0];
  }
}

TEST(CleanPath, TwoFlipsInAHeaderTripleFallBack) {
  const Stats s = flipped_against_per_bit(
      PacketType::kDm5, 100, {kHeader + 12, kHeader + 14}, kPayload + 30);
  EXPECT_EQ(s.header_flips, 1u);
  EXPECT_EQ(s.clean, 0u);
}

TEST(CleanPath, AFlipInADhLengthFieldFallsBack) {
  // Data bit 3 is the length field's lowest bit (bits 0-2 are LLID and
  // FLOW); DH5's second payload header byte carries its upper bits.
  for (const std::uint32_t at : {kPayload + 3, kPayload + 9}) {
    SCOPED_TRACE(at);
    const Stats s =
        flipped_against_per_bit(PacketType::kDh5, 300, {at}, kPayload + 30);
    EXPECT_EQ(s.length_flips, 1u);
    EXPECT_EQ(s.clean, 0u);
  }
}

TEST(CleanPath, ADmBlockFailureBeforeTheLengthFallsBack) {
  // DM5's two-byte payload header resolves after its second block, so a
  // failure in block 0 or 1 fails the framing; DM1's one-byte header
  // resolves after block 0.
  for (const auto& [type, at] :
       std::vector<std::pair<PacketType, std::uint32_t>>{
           {PacketType::kDm5, kPayload}, {PacketType::kDm5, kPayload + 15},
           {PacketType::kDm1, kPayload}}) {
    SCOPED_TRACE(to_string(type));
    const Stats s = flipped_against_per_bit(type, 10, {at, at + 7},
                                            kPayload + 40);
    EXPECT_EQ(s.early_fec, 1u);
    EXPECT_EQ(s.clean, 0u);
  }
}

TEST(CleanPath, AccessCodeFlipsThatSuppressOrMoveTheSync) {
  // Eleven flips in the sync word (air bits 4..67) exceed the
  // correlator's ten tolerated errors: no sync at all.
  std::vector<std::uint32_t> flips;
  for (std::uint32_t i = 0; i < 11; ++i) flips.push_back(4 + 5 * i);
  Stats s = flipped_against_per_bit(PacketType::kDh1, 20, flips, 60);
  EXPECT_EQ(receptions(s) + s.offset + s.mismatch, 0u);
  // Flips that write the sync word one bit late (air bits 5..68): the
  // correlator fires at 68, not 67, and the receiver reads bits.
  TxPacket packet;
  Link::fill(packet, kLap, PacketType::kDh1, 20);
  const std::uint64_t sync = sync_bits(kLap);
  flips.clear();
  for (std::uint32_t i = 0; i < 64; ++i) {
    const bool want = (sync >> i) & 1u;
    const bool have = (packet.word(5 + i, 1) & 1u) != 0;
    if (want != have) flips.push_back(5 + i);
  }
  s = flipped_against_per_bit(PacketType::kDh1, 20, flips, 100);
  EXPECT_EQ(s.offset, 1u);
  EXPECT_EQ(s.clean, 0u);
}

TEST(CleanPath, RandomFlipsMatchPerBit) {
  // Seeded flip sets over every packet type at BER 1/30 and 1/100, read
  // mid-packet and at the end: taken or not, the same results.
  const PacketType types[] = {PacketType::kNull, PacketType::kDm1,
                              PacketType::kDh1,  PacketType::kDm3,
                              PacketType::kDh3,  PacketType::kDm5,
                              PacketType::kDh5,  PacketType::kFhs};
  Stats total;
  sim::Rng rng(2029);
  for (const PacketType type : types) {
    for (int round = 0; round < 40; ++round) {
      const double ber = round % 2 == 0 ? 1.0 / 30 : 1.0 / 100;
      const std::size_t user =
          max_user_bytes(type) == 0
              ? 0
              : static_cast<std::size_t>(
                    rng.uniform(1, max_user_bytes(type)));
      // FHS: 18 bytes and the CRC in 16 FEC blocks.
      std::size_t n = kAccessCodeBits + kHeaderCodedBits + 240;
      if (type != PacketType::kFhs) {
        TxPacket probe;
        Link::fill(probe, kLap, type, user);
        n = probe.size();
      }
      std::vector<std::uint32_t> flips;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (rng.bernoulli(ber)) flips.push_back(i);
      }
      SCOPED_TRACE(std::string(to_string(type)) + " round " +
                   std::to_string(round));
      total = add(total, flipped_against_per_bit(
                             type, user, flips,
                             static_cast<std::size_t>(rng.uniform(0, n))));
    }
  }
  // Both paths ran.
  EXPECT_GT(total.noisy, 0u);
  EXPECT_GT(total.header_flips + total.length_flips + total.early_fec, 0u);
}

TEST(CleanPath, SystemCheckpointMidPacketRoundTrips) {
  // save -> restore -> continue equals the uninterrupted run, and both
  // end on the per-bit reference's row.
  const PacketType type = PacketType::kDh5;
  const std::size_t payload = max_user_bytes(type);
  auto delivered = [&](bool burst) {
    phy::NoisyChannel::set_burst_transport_default(burst);
    auto warm = core::throughput_warmup(type, 23);
    core::BluetoothSystem& a = *warm.system;
    const std::uint8_t lt = a.lt_addr_of(0);
    std::uint64_t delivered_a = 0;
    lm::LinkManager::Events ev;
    ev.user_data = [&](std::uint8_t, std::vector<std::uint8_t> d) {
      delivered_a += d.size();
    };
    a.slave_lm(0).set_events(std::move(ev));
    core::SaturatingTrafficSource src_a(a.master(), lt, payload);
    a.run(kSlotDuration * 40);
    // Step until the slave is assembling a packet on the air.
    for (int i = 0; i < 400 && !(a.master().radio().tx_busy() &&
                                 a.slave(0).receiver().assembling());
         ++i) {
      a.run(SimTime::us(37));
    }
    EXPECT_TRUE(a.slave(0).receiver().assembling());
    const std::vector<std::uint8_t> snap = a.save_snapshot();
    const std::uint64_t delivered_at_snap = delivered_a;

    auto b = core::throughput_scaffold(type, warm.construction_seed);
    std::uint64_t delivered_b = 0;
    lm::LinkManager::Events evb;
    evb.user_data = [&](std::uint8_t, std::vector<std::uint8_t> d) {
      delivered_b += d.size();
    };
    b->slave_lm(0).set_events(std::move(evb));
    core::SaturatingTrafficSource src_b(b->master(), lt, payload);
    b->restore_snapshot(snap);
    EXPECT_EQ(b->save_snapshot(), snap);
    a.run(kSlotDuration * 200);
    b->run(kSlotDuration * 200);
    EXPECT_EQ(a.save_snapshot(), b->save_snapshot());
    EXPECT_EQ(delivered_a - delivered_at_snap, delivered_b);
    a.slave_lm(0).set_events({});
    b->slave_lm(0).set_events({});
    return delivered_a;
  };
  const std::uint64_t burst = delivered(true);
  const std::uint64_t ref = delivered(false);
  phy::NoisyChannel::set_burst_transport_default(true);
  EXPECT_EQ(burst, ref);
  EXPECT_GT(burst, 0u);
}

}  // namespace
}  // namespace btsc::baseband
