// Burst-transport swap safety, end to end: the word-packed/batched
// transport must be bit-for-bit indistinguishable from the per-bit
// reference path -- identical Monte-Carlo replication outcomes and a
// zero-heap-allocation steady state for a full packet round trip -- and
// the VCD of a noisy multi-device creation scenario (traced systems run
// per-bit under either switch setting) stays pinned to its digest.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <utility>

#include "baseband/access_code.hpp"
#include "baseband/fec.hpp"
#include "baseband/hec.hpp"
#include "baseband/packet.hpp"
#include "baseband/receiver.hpp"
#include "baseband/tx_packet.hpp"
#include "core/coexistence.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/environment.hpp"
#include "sim/snapshot.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

// GCC's -Wmismatched-new-delete heuristic flags the malloc/free pair it
// can see through this replaced allocator; the pairing is the standard
// counting-hook idiom and is correct (new -> malloc, delete -> free).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

#pragma GCC diagnostic pop

namespace btsc::core {
namespace {

using namespace btsc::sim::literals;

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

/// Runs the noisy three-device creation scenario with a VCD tracer and
/// returns the VCD text; `burst` selects the burst transport or the
/// per-bit reference path.
std::string creation_vcd(bool burst, const std::string& path) {
  SystemConfig sc;
  sc.num_slaves = 2;
  sc.seed = 4321;
  sc.ber = 1.0 / 60;  // noisy: flips, retries, backoffs
  sc.vcd_path = path;
  BluetoothSystem sys(sc);
  sys.channel().set_burst_transport_enabled(burst);
  for (int i = 0; i < 2; ++i) sys.slave(i).lc().enable_inquiry_scan();
  sys.master().lc().enable_inquiry();
  sys.run(80_ms);
  sys.finish_trace();
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(BurstEquivalenceTest, VcdByteIdenticalAcrossBurstAndPerBitTransport) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string base = ::testing::TempDir() + info->name();
  for (const bool burst : {true, false}) {
    SCOPED_TRACE(burst ? "burst switch on" : "burst switch off");
    const std::string path = base + (burst ? "_burst.vcd" : "_perbit.vcd");
    const std::string vcd = creation_vcd(burst, path);
    std::remove(path.c_str());
    // Byte-for-byte: every enable line, state change and bus value of the
    // whole noisy creation at the same timestamp in the same order.
    const std::uint64_t digest = sim::snapshot_checksum(
        reinterpret_cast<const std::uint8_t*>(vcd.data()), vcd.size());
    EXPECT_EQ(std::make_pair(vcd.size(), digest),
              std::make_pair(std::size_t{61730},
                             std::uint64_t{0x4d6d78609974e916}))
        << std::hex << "digest 0x" << digest;
  }
}

/// Guard that flips the process-wide burst default and restores it.
class BurstDefaultGuard {
 public:
  explicit BurstDefaultGuard(bool enabled)
      : saved_(phy::NoisyChannel::burst_transport_default()) {
    phy::NoisyChannel::set_burst_transport_default(enabled);
  }
  ~BurstDefaultGuard() {
    phy::NoisyChannel::set_burst_transport_default(saved_);
  }

 private:
  bool saved_;
};

/// One staged replication of each family: warm up on `seed`, then
/// measure on the same seed.
CreationSample creation_replication(double ber, std::uint64_t seed) {
  auto sys = make_creation_system(ber, 2048, seed);
  return run_creation_from(*sys, seed);
}

ThroughputRow throughput(baseband::PacketType type, double ber,
                         const ThroughputConfig& cfg) {
  auto w = throughput_warmup(type, cfg.seed);
  return run_throughput_from(*w.system, type, ber, cfg);
}

CoexistenceRow coexistence(std::uint32_t neighbour_period_slots,
                           const CoexistenceRunConfig& cfg) {
  auto net = coexistence_warmup(cfg.seed);
  return run_coexistence_from(*net, neighbour_period_slots, cfg);
}

TEST(BurstEquivalenceTest, CreationReplicationsIdenticalAcrossTransports) {
  // Same seeds, BERs spanning clean and noisy channels: the replication
  // outcomes (the raw material of figs. 6-8) must match field by field.
  for (double ber : {0.0, 1.0 / 200, 1.0 / 40}) {
    for (std::uint64_t seed : {1000ull, 1003ull, 1007ull}) {
      CreationSample on, off;
      {
        BurstDefaultGuard g(true);
        on = creation_replication(ber, seed);
      }
      {
        BurstDefaultGuard g(false);
        off = creation_replication(ber, seed);
      }
      EXPECT_EQ(on.inquiry_success, off.inquiry_success)
          << "ber=" << ber << " seed=" << seed;
      EXPECT_EQ(on.inquiry_slots, off.inquiry_slots)
          << "ber=" << ber << " seed=" << seed;
      EXPECT_EQ(on.page_attempted, off.page_attempted);
      EXPECT_EQ(on.page_success, off.page_success);
      EXPECT_EQ(on.page_slots, off.page_slots)
          << "ber=" << ber << " seed=" << seed;
    }
  }
}

TEST(BurstEquivalenceTest, ThroughputRowIdenticalAcrossTransports) {
  ThroughputConfig cfg;
  cfg.seed = 77;
  cfg.measure_slots = 2000;
  ThroughputRow on, off;
  {
    BurstDefaultGuard g(true);
    on = throughput(baseband::PacketType::kDm1, 1.0 / 300, cfg);
  }
  {
    BurstDefaultGuard g(false);
    off = throughput(baseband::PacketType::kDm1, 1.0 / 300, cfg);
  }
  EXPECT_EQ(on.goodput_kbps, off.goodput_kbps);
  EXPECT_EQ(on.delivered_messages, off.delivered_messages);
  EXPECT_EQ(on.retransmissions, off.retransmissions);
}

TEST(BurstEquivalenceTest, CoexistenceRowIdenticalAcrossTransports) {
  // Two piconets on one medium: receivers of both share the sampling
  // grid, so at a shared instant the order in which they sample decides
  // whose collision draw comes first. Receivers leaving a lazy mode must
  // rejoin the per-bit reference's order. These seeds (warm-up and
  // measure on the same seed) diverge when they do not, i.e. with
  // NoisyChannel::requeue_rx_chains_after() made a no-op: seed 30 counts
  // 828 vs 873 collided samples; seed 57 counts 1380 vs 1535, with 18 vs
  // 19 retransmissions and a victim goodput of 106.189 vs 106.044 kbit/s.
  // Both piconets keep their own burst runs while they hop on different
  // frequencies, so several runs start and end at shared instants; seeds
  // 1, 2, 3 and 2030 widen the gate on that ordering.
  for (std::uint64_t seed : {30ull, 57ull, 1ull, 2ull, 3ull, 2030ull}) {
    CoexistenceRunConfig cfg;
    cfg.seed = seed;
    cfg.measure_slots = 1500;
    CoexistenceRow on, off;
    {
      BurstDefaultGuard g(true);
      on = coexistence(2, cfg);
    }
    {
      BurstDefaultGuard g(false);
      off = coexistence(2, cfg);
    }
    EXPECT_EQ(on.collision_samples, off.collision_samples) << "seed=" << seed;
    EXPECT_EQ(on.retransmissions, off.retransmissions) << "seed=" << seed;
    EXPECT_EQ(on.goodput_kbps, off.goodput_kbps) << "seed=" << seed;
  }
}

TEST(BurstEquivalenceTest, MidRunReconfigureMatchesPerBitReference) {
  // Re-arming the receiver while lazy samples are still pending must
  // feed those samples to the OLD decode machine (as the per-bit path
  // did, at their own instants) and leave the fresh correlator cold.
  // With 30 of the 68 ID bits consumed by the old machine, only 38 sync
  // bits remain: neither transport may detect a sync.
  using namespace btsc::baseband;
  const std::uint32_t lap = 0x9E8B33;
  auto syncs_after_midrun_rearm = [&](bool burst) {
    sim::Environment env;
    phy::NoisyChannel ch(env, "ch");
    ch.set_burst_transport_enabled(burst);
    phy::Radio tx(env, "tx", ch);
    phy::Radio rx(env, "rx", ch);
    Receiver rec(env, "rec");
    rx.set_burst_rx_sink(&rec);
    rec.set_transport_hooks([&] { rx.rx_catch_up(); },
                            [&] { rx.rx_state_changed(); });
    rec.configure(sync_bits(lap), kDefaultCheckInit, std::nullopt,
                  Receiver::Expect::kIdOnly);
    rx.enable_rx(3);
    sim::BitVector id;
    AccessCode::of(lap).append_to(id, kIdPacketBits);
    tx.transmit(3, std::move(id));
    env.run(30_us);
    rec.configure(sync_bits(lap), kDefaultCheckInit, std::nullopt,
                  Receiver::Expect::kIdOnly);  // re-arm mid-packet
    env.run(200_us);
    rx.disable_rx();
    return rec.syncs_detected();
  };
  const auto on = syncs_after_midrun_rearm(true);
  const auto off = syncs_after_midrun_rearm(false);
  EXPECT_EQ(on, off);
  EXPECT_EQ(off, 0u) << "38 remaining sync bits must not correlate";
}

TEST(BurstEquivalenceTest, ReservedTypeHeaderKeepsSilenceProbeBounded) {
  // A corrupted header can pass HEC while naming a reserved TYPE code
  // (e.g. 0b0101): has_payload() is true but no payload-header length
  // ever resolves, so the per-bit path just accumulates one bit per
  // microsecond. The silence probe must stay bounded there instead of
  // dry-running the whole 2^30-sample horizon.
  using namespace btsc::baseband;
  sim::Environment env;
  Receiver rec(env, "rec");
  const std::uint32_t lap = 0x2A613C;
  rec.configure(sync_bits(lap), kDefaultCheckInit, std::nullopt,
                Receiver::Expect::kFull);
  PacketHeader h;
  h.type = static_cast<PacketType>(0b0101);  // reserved code
  h.lt_addr = 1;
  const std::uint16_t header10 = h.pack();
  const std::uint8_t hec = hec_compute10(header10, kDefaultCheckInit);
  sim::BitVector bits;
  AccessCode::of(lap).append_to(bits, kAccessCodeBits);
  sim::BitVector info;
  info.append_uint(header10, 10);
  info.append_uint(hec, 8);
  bits.append(fec13_encode(info));
  for (std::size_t i = 0; i < bits.size(); ++i) {
    rec.on_sample(phy::from_bit(bits[i]));
  }
  ASSERT_TRUE(rec.assembling()) << "reserved type entered payload phase";
  ASSERT_EQ(rec.hec_failures(), 0u);
  const std::size_t q =
      rec.quiet_prefix(nullptr, 0, std::size_t{1} << 30);
  EXPECT_LE(q, 8192u) << "silence probe must be capped";
  // The capped span really is quiet: consuming it must not fire.
  rec.consume_quiet(nullptr, 0, q);
  EXPECT_TRUE(rec.assembling());
}

// ---- steady-state allocation contract ----

TEST(BurstEquivalenceTest, BurstPacketRoundTripPerformsZeroAllocations) {
  using namespace btsc::baseband;
  sim::Environment env;
  phy::NoisyChannel ch(env, "ch");
  phy::Radio tx(env, "tx", ch);
  phy::Radio rx(env, "rx", ch);
  Receiver rec(env, "rec");
  rx.set_burst_rx_sink(&rec);
  rec.set_transport_hooks([&] { rx.rx_catch_up(); },
                          [&] { rx.rx_state_changed(); });

  const std::uint32_t lap = 0x2A613C;
  const std::uint8_t uap = 0x47;
  rec.configure(sync_bits(lap), uap, std::uint8_t{0x55},
                Receiver::Expect::kFull);

  int delivered = 0;
  bool last_ok = false;
  rec.set_handler([&](const Receiver::Result& r) {
    ++delivered;
    last_ok = r.payload_ok;
  });
  rx.enable_rx(11);

  // A full DH5 packet: the largest unprotected ACL payload.
  const std::vector<std::uint8_t> user(300, 0xA5);
  PacketHeader h;
  h.type = PacketType::kDh5;
  h.lt_addr = 1;
  LinkParams params;
  params.check_init = uap;
  params.whiten_init = std::uint8_t{0x55};
  const std::vector<std::uint8_t> body =
      build_acl_body(PacketType::kDh5, kLlidStart, true, user);
  auto compose = [&] {
    sim::BitVector bits;
    AccessCode::of(lap).append_to(bits, kAccessCodeBits);
    compose_after_access_code(h, body, params, bits);
    return bits;
  };

  // Warm-up: first packets size every reusable buffer (receiver scratch,
  // collected/payload capacity, timer slab, result body).
  for (int i = 0; i < 3; ++i) {
    auto bits = compose();
    tx.transmit(11, std::move(bits));
    env.run(4_ms);
  }
  ASSERT_EQ(delivered, 3);
  ASSERT_TRUE(last_ok);

  // Steady state: composing is the caller's business (measured outside),
  // but transmit + burst transport + full decode + delivery must not
  // touch the heap at all.
  for (int i = 0; i < 4; ++i) {
    auto bits = compose();
    const std::uint64_t before = allocs();
    tx.transmit(11, std::move(bits));
    env.run(4_ms);
    EXPECT_EQ(allocs(), before) << "round " << i;
    ASSERT_EQ(delivered, 4 + i);
    ASSERT_TRUE(last_ok);
  }
  EXPECT_EQ(ch.bits_burst(), ch.bits_driven());
  EXPECT_EQ(ch.burst_fallbacks(), 0u);
}

TEST(BurstEquivalenceTest, CleanPacketRoundTripPerformsZeroAllocations) {
  // The link controller's path: a TxPacket is set (its body copied into
  // retained capacity), carried as a clean run and taken by the matching
  // receiver. Nothing composes its bits, so nothing allocates -- body
  // building included.
  using namespace btsc::baseband;
  sim::Environment env;
  phy::NoisyChannel ch(env, "ch");
  phy::Radio tx(env, "tx", ch);
  phy::Radio rx(env, "rx", ch);
  Receiver rec(env, "rec");
  rx.set_burst_rx_sink(&rec);
  rec.set_transport_hooks([&] { rx.rx_catch_up(); },
                          [&] { rx.rx_state_changed(); });
  const std::uint32_t lap = 0x2A613C;
  const std::uint8_t uap = 0x47;
  rec.configure(sync_bits(lap), uap, std::uint8_t{0x55},
                Receiver::Expect::kFull);
  int delivered = 0;
  rec.set_handler([&](const Receiver::Result& r) {
    delivered += r.payload_ok ? 1 : 0;
  });
  rx.enable_rx(11);

  const AccessCode code = AccessCode::of(lap);
  PacketHeader h;
  h.type = PacketType::kDm5;
  h.lt_addr = 1;
  LinkParams params;
  params.check_init = uap;
  params.whiten_init = std::uint8_t{0x55};
  const std::vector<std::uint8_t> body = build_acl_body(
      PacketType::kDm5, kLlidStart, true, std::vector<std::uint8_t>(200, 7));
  TxPacket packet;
  for (int i = 0; i < 7; ++i) {
    const std::uint64_t before = allocs();
    packet.set(code, h, body, params);
    tx.transmit(11, packet);
    env.run(4_ms);
    if (i >= 3) {
      EXPECT_EQ(allocs(), before) << "round " << i;
    }
  }
  EXPECT_EQ(delivered, 7);
  EXPECT_EQ(rec.clean_path_stats().clean, 7u);
}

TEST(BurstEquivalenceTest, NoisyFallbackRoundTripPerformsZeroAllocations) {
  // A noisy DM5 the receiver cannot take -- its length field names 100
  // of the 200 user bytes it carries, so the receiver's framing is not
  // the packet's -- is read as bits: the channel's flipped view composes
  // the TxPacket's bits and its own flipped copy, and the receiver
  // decodes them. After warm-up none of that allocates: compose writes
  // straight into the packets' retained buffers.
  using namespace btsc::baseband;
  sim::Environment env(5);
  phy::NoisyChannel ch(env, "ch");
  phy::Radio tx(env, "tx", ch);
  phy::Radio rx(env, "rx", ch);
  Receiver rec(env, "rec");
  rx.set_burst_rx_sink(&rec);
  rec.set_transport_hooks([&] { rx.rx_catch_up(); },
                          [&] { rx.rx_state_changed(); });
  const std::uint32_t lap = 0x2A613C;
  const std::uint8_t uap = 0x47;
  rec.configure(sync_bits(lap), uap, std::uint8_t{0x55},
                Receiver::Expect::kFull);
  int delivered = 0;
  rec.set_handler([&](const Receiver::Result&) { ++delivered; });
  rx.enable_rx(11);

  const AccessCode code = AccessCode::of(lap);
  PacketHeader h;
  h.type = PacketType::kDm5;
  h.lt_addr = 1;
  LinkParams params;
  params.check_init = uap;
  params.whiten_init = std::uint8_t{0x55};
  std::vector<std::uint8_t> body = build_acl_body(
      PacketType::kDm5, kLlidStart, true, std::vector<std::uint8_t>(200, 7));
  body[0] = static_cast<std::uint8_t>((body[0] & 0x07u) | (100u & 0x1Fu) << 3);
  body[1] = static_cast<std::uint8_t>(100u >> 5);
  TxPacket packet;
  for (int i = 0; i < 7; ++i) {
    // Warm-up at a higher BER: the flip list's capacity then covers
    // every later packet's flips.
    if (i == 0 || i == 3) ch.set_ber(i == 0 ? 1.0 / 50 : 1.0 / 200);
    const std::uint64_t flipped = ch.bits_flipped();
    const std::uint64_t before = allocs();
    packet.set(code, h, body, params);
    tx.transmit(11, packet);
    env.run(4_ms);
    if (i >= 3) {
      EXPECT_EQ(allocs(), before) << "round " << i;
    }
    EXPECT_GT(ch.bits_flipped(), flipped) << "round " << i;
  }
  EXPECT_GE(delivered, 7);
  EXPECT_EQ(rec.clean_path_stats().mismatch, 7u);
  EXPECT_EQ(rec.clean_path_stats().clean, 0u);
  EXPECT_EQ(ch.burst_fallbacks(), 0u);
}

}  // namespace
}  // namespace btsc::core
