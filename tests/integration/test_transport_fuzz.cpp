// Burst vs per-bit transport, whole systems: a seeded generator of
// cases over BER, ACL packet type and one or two piconets. Each case
// builds, connects and measures the same system twice, once with the
// burst transport and once on the per-bit reference path (`--no-burst`),
// and requires identical rows and identical receiver, radio, link
// controller and channel counters. The burst side's receivers take
// noisy packets in logical form where the flips leave the framing
// intact and fall back to the bits elsewhere; the tier-1 range must
// reach every one of those paths. A failing case prints its seed and
// parameters; `Case::describe` is the one-line repro.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baseband/device.hpp"
#include "baseband/packet.hpp"
#include "baseband/receiver.hpp"
#include "core/coexistence.hpp"
#include "core/experiments.hpp"
#include "core/system.hpp"
#include "phy/channel.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"

namespace btsc::core {
namespace {

using baseband::PacketType;

/// Sets the process-wide burst default for channels built in its scope.
class BurstDefaultGuard {
 public:
  explicit BurstDefaultGuard(bool enabled)
      : saved_(phy::NoisyChannel::burst_transport_default()) {
    phy::NoisyChannel::set_burst_transport_default(enabled);
  }
  ~BurstDefaultGuard() {
    phy::NoisyChannel::set_burst_transport_default(saved_);
  }
  BurstDefaultGuard(const BurstDefaultGuard&) = delete;
  BurstDefaultGuard& operator=(const BurstDefaultGuard&) = delete;

 private:
  bool saved_;
};

/// One generated case.
struct Case {
  std::uint64_t seed = 0;
  double ber = 0.0;
  PacketType type = PacketType::kDm1;
  int piconets = 1;
  std::size_t payload = 1;          // user bytes per message
  std::uint32_t neighbour_period = 0;  // two piconets: 0 = idle neighbour
  std::uint32_t measure_slots = 0;

  std::string describe() const {
    std::ostringstream os;
    os << "seed " << seed << ": " << piconets << " piconet(s), "
       << baseband::to_string(type) << ", BER " << ber << ", payload "
       << payload << " B";
    if (piconets == 2) os << ", neighbour period " << neighbour_period;
    os << ", " << measure_slots << " slots";
    return os.str();
  }
};

Case generate(std::uint64_t seed) {
  static constexpr std::array<double, 6> kBers = {
      0.0, 1.0 / 5000, 1.0 / 1000, 1.0 / 200, 1.0 / 100, 1.0 / 30};
  static constexpr std::array<PacketType, 6> kTypes = {
      PacketType::kDm1, PacketType::kDh1, PacketType::kDm3,
      PacketType::kDh3, PacketType::kDm5, PacketType::kDh5};
  static constexpr std::array<std::uint32_t, 4> kPeriods = {0, 2, 4, 16};
  sim::Rng rng(seed);
  Case c;
  c.seed = seed;
  c.ber = kBers[rng.uniform(0, kBers.size() - 1)];
  c.type = kTypes[rng.uniform(0, kTypes.size() - 1)];
  c.piconets = static_cast<int>(rng.uniform(1, 2));
  c.payload = static_cast<std::size_t>(
      rng.uniform(1, baseband::max_user_bytes(c.type)));
  c.neighbour_period = kPeriods[rng.uniform(0, kPeriods.size() - 1)];
  c.measure_slots = static_cast<std::uint32_t>(rng.uniform(200, 600));
  return c;
}

/// What a measured case leaves behind: the row, every counter a
/// transport could disturb, and each receiver's checkpoint section; and,
/// compared with nothing, which decode paths the receivers took.
struct Outcome {
  std::vector<double> row;
  std::vector<std::uint64_t> counters;
  std::array<std::uint64_t, 4> root_stream{};
  std::vector<std::uint8_t> receivers;
  baseband::Receiver::CleanPathStats paths;
};

/// Adds the noisy-packet counts of `s` (takes and fallback reasons).
void add_noisy_paths(baseband::Receiver::CleanPathStats& into,
                     const baseband::Receiver::CleanPathStats& s) {
  into.noisy += s.noisy;
  into.header_flips += s.header_flips;
  into.length_flips += s.length_flips;
  into.early_fec += s.early_fec;
}

void add_device(Outcome& o, baseband::Device& d) {
  std::vector<std::uint64_t>& out = o.counters;
  const baseband::Receiver& rx = d.receiver();
  const baseband::LcStats& st = d.lc().stats();
  // carrier_samples() materialises the radio's pending lazy samples.
  const std::uint64_t carrier = rx.carrier_samples();
  for (const std::uint64_t v :
       {carrier, rx.syncs_detected(), rx.hec_failures(), rx.crc_failures(),
        rx.fec_failures(),
        d.radio().bits_sent(), d.radio().bits_sampled(),
        static_cast<std::uint64_t>(d.radio().tx_on_time().as_ns()),
        static_cast<std::uint64_t>(d.radio().rx_on_time().as_ns()), st.id_tx,
        st.id_rx, st.fhs_tx, st.fhs_rx, st.data_tx, st.data_rx_ok,
        st.poll_tx, st.null_tx, st.retransmissions, st.duplicates_dropped,
        st.backoffs}) {
    out.push_back(v);
  }
  // Caught up above, the decode machine is the one the per-bit path
  // holds now, whitener and correlator included.
  sim::SnapshotWriter w;
  rx.save_state(w);
  const std::vector<std::uint8_t> bytes = w.take();
  o.receivers.insert(o.receivers.end(), bytes.begin(), bytes.end());
  add_noisy_paths(o.paths, rx.clean_path_stats());
}

void add_channel(std::vector<std::uint64_t>& out, phy::NoisyChannel& ch) {
  out.push_back(ch.bits_driven());
  out.push_back(ch.bits_flipped());
  out.push_back(ch.collision_samples());
}

Outcome run_one_piconet(const Case& c) {
  ConnectedWarmup warm = throughput_warmup(c.type, c.seed);
  BluetoothSystem& sys = *warm.system;
  ThroughputConfig cfg;
  cfg.seed = c.seed + 1;
  cfg.measure_slots = c.measure_slots;
  const ThroughputRow r = run_throughput_from(sys, c.type, c.ber, cfg);
  Outcome out;
  out.row = {r.goodput_kbps, static_cast<double>(r.delivered_messages),
             static_cast<double>(r.retransmissions)};
  add_channel(out.counters, sys.channel());
  add_device(out, sys.master());
  add_device(out, sys.slave(0));
  out.counters.push_back(sys.env().now().as_ns());
  out.root_stream = sys.env().rng().state();
  return out;
}

Outcome run_two_piconets(const Case& c) {
  TwoPiconets net(c.seed);
  for (int p = 0; p < 2; ++p) {
    net.master(p).lc().config().data_packet_type = c.type;
    net.slave(p).lc().config().data_packet_type = c.type;
  }
  if (!net.create(0) || !net.create(1)) {
    ADD_FAILURE() << c.describe() << ": piconet creation failed";
    return {};
  }
  net.channel().set_ber(c.ber);
  CoexistenceRunConfig cfg;
  cfg.seed = c.seed + 1;
  cfg.measure_slots = c.measure_slots;
  cfg.payload_bytes = c.payload;
  const CoexistenceRow r = run_coexistence_from(net, c.neighbour_period, cfg);
  Outcome out;
  out.row = {r.goodput_kbps, static_cast<double>(r.retransmissions),
             static_cast<double>(r.collision_samples)};
  add_channel(out.counters, net.channel());
  for (int p = 0; p < 2; ++p) {
    add_device(out, net.master(p));
    add_device(out, net.slave(p));
  }
  out.counters.push_back(net.env().now().as_ns());
  out.root_stream = net.env().rng().state();
  return out;
}

Outcome run_case(const Case& c, bool burst) {
  BurstDefaultGuard g(burst);
  return c.piconets == 1 ? run_one_piconet(c) : run_two_piconets(c);
}

/// Runs seeds [first, last] on both transports and requires identical
/// outcomes; returns the burst side's decode paths, summed.
baseband::Receiver::CleanPathStats run_seeds(std::uint64_t first,
                                             std::uint64_t last) {
  baseband::Receiver::CleanPathStats paths;
  int noisy = 0;
  int two = 0;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const Case c = generate(seed);
    SCOPED_TRACE(c.describe());
    const Outcome burst = run_case(c, true);
    const Outcome ref = run_case(c, false);
    EXPECT_EQ(burst.row, ref.row) << c.describe() << ": rows differ";
    EXPECT_EQ(burst.counters, ref.counters)
        << c.describe() << ": counters differ";
    EXPECT_EQ(burst.root_stream, ref.root_stream)
        << c.describe() << ": root stream positions differ";
    EXPECT_TRUE(burst.receivers == ref.receivers)
        << c.describe() << ": receiver states differ";
    add_noisy_paths(paths, burst.paths);
    noisy += c.ber > 0.0;
    two += c.piconets == 2;
  }
  // The range covers noise and contention.
  EXPECT_GT(noisy, 0);
  EXPECT_GT(two, 0);
  return paths;
}

// Tier-1 seed range; each case runs the per-bit reference in full, so
// the range is kept to a few seconds.
TEST(TransportFuzz, BurstMatchesPerBitOnGeneratedSystems) {
  const baseband::Receiver::CleanPathStats paths = run_seeds(1, 40);
  // Noisy packets were taken, and fell back for each reason.
  EXPECT_GT(paths.noisy, 0u);
  EXPECT_GT(paths.header_flips, 0u);
  EXPECT_GT(paths.length_flips, 0u);
  EXPECT_GT(paths.early_fec, 0u);
}

// The longer range, run by scripts/ci.sh (--gtest_also_run_disabled_tests).
TEST(TransportFuzz, DISABLED_LongRange) { run_seeds(41, 400); }

TEST(TransportFuzz, FecFailuresReadMidPayloadMatchPerBit) {
  // This case ends its measurement while a DM5 payload at BER 1/100 is
  // still on the air: the burst receivers hold the samples since the
  // last effect lazily, and fec_failures() must count the FEC blocks
  // among them, read before anything else catches them up.
  Case c;
  c.seed = 8;
  c.ber = 1.0 / 100;
  c.type = PacketType::kDm5;
  c.payload = 104;
  c.measure_slots = 530;
  std::array<std::uint64_t, 2> fec[2];
  for (int burst = 0; burst < 2; ++burst) {
    BurstDefaultGuard g(burst == 1);
    ConnectedWarmup warm = throughput_warmup(c.type, c.seed);
    BluetoothSystem& sys = *warm.system;
    ThroughputConfig cfg;
    cfg.seed = c.seed + 1;
    cfg.measure_slots = c.measure_slots;
    run_throughput_from(sys, c.type, c.ber, cfg);
    fec[burst] = {sys.master().receiver().fec_failures(),
                  sys.slave(0).receiver().fec_failures()};
  }
  EXPECT_GT(fec[0][0] + fec[0][1], 0u);
  EXPECT_EQ(fec[1], fec[0]) << c.describe();
}

}  // namespace
}  // namespace btsc::core
