// Experiment runners: one function per figure of the paper, plus the
// packet-type throughput analysis the paper names as a goal of the model.
//
// Every study is staged: one replication is a warm-up stage followed by
// a measure stage. Two levels of API:
//  * warm-up / scaffold (make_*_system, *_warmup, *_scaffold) — build a
//    study's system from a dedicated warm-up seed, shared by every
//    replication of a parameter point, and simulate the
//    replication-independent prefix up to a settled, snapshotable
//    instant; the scaffold is the structural twin a snapshot restores
//    into.
//  * run_*_from — the measure stage: reseeds the environment RNG with
//    the replication seed and simulates the measured window. It must
//    derive all randomness from that seed and touch no shared state, so
//    runner::SweepRunner can spread replications across threads.
//
// The runner forks every replication from a per-point snapshot of the
// warm-up; re-running the warm-up cold instead produces bitwise-identical
// samples, which the runner's fork == cold gate asserts.
//
// Benches print the rows; tests run reduced configurations.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "baseband/packet.hpp"
#include "core/metrics.hpp"
#include "stats/accumulator.hpp"

namespace btsc::core {

class BluetoothSystem;
class TwoPiconets;

/// Reserved replication index of the warm-up seed derivation:
/// warm_seed = Rng::derive_stream_seed(base_seed, stream, kWarmupIndex).
/// Real replication indices are small, so the warm-up stream can never
/// collide with a measurement stream.
inline constexpr std::uint64_t kWarmupReplicationIndex =
    0xFFFFFFFFFFFFFFFFull;

// ---- Figs. 6-8: piconet creation vs BER ----

/// Outcome of ONE 2-device creation attempt (one replication).
struct CreationSample {
  /// Inquiry completed before the timeout.
  bool inquiry_success = false;
  /// Slots the inquiry phase took (valid when inquiry_success).
  std::uint64_t inquiry_slots = 0;
  /// Page was attempted (i.e. inquiry succeeded).
  bool page_attempted = false;
  /// Page completed before the timeout.
  bool page_success = false;
  /// Slots the page phase took (valid when page_success).
  std::uint64_t page_slots = 0;
};

/// Aggregate over many creation replications at one BER.
struct CreationPoint {
  /// Channel bit error rate of this parameter point.
  double ber = 0.0;
  /// Slots to complete, successful runs only (the paper's mean).
  stats::Accumulator inquiry_slots;
  /// Slots to complete the page phase, successful runs only.
  stats::Accumulator page_slots;
  /// Success ratios; page is conditional on inquiry having succeeded.
  stats::RatioCounter inquiry_ok;
  /// Page success ratio over the attempts that followed a successful
  /// inquiry.
  stats::RatioCounter page_ok;

  /// Folds one replication into the aggregate.
  void add(const CreationSample& s);
  /// Merges another point's partials (parallel reduction).
  void merge(const CreationPoint& other);

  /// Journal codec (runner sweep resume): serializes the aggregate so a
  /// completed replication can be replayed from disk byte-for-byte.
  void save_state(sim::SnapshotWriter& w) const;
  void restore_state(sim::SnapshotReader& r);
};

// ---- Ablation: inquiry backoff ceiling ----

/// One noiseless inquiry run with a non-default random-backoff ceiling
/// (the spec fixes 1023; the ablation sweeps it). Returns success and
/// slots against the paper's 1.28 s timeout.
struct BackoffSample {
  bool success = false;
  std::uint64_t slots = 0;
};

// ---- Fig. 10: master RF activity vs channel duty cycle ----

struct MasterActivityRow {
  /// Fraction of master TX slots carrying traffic.
  double duty = 0.0;
  /// Measured TX/RX duty cycles of the master radio.
  RfActivity master;
  /// Application messages handed to the link during the window.
  std::uint64_t messages = 0;
};

struct MasterActivityConfig {
  /// Replication seed: the measure stage reseeds the environment with it.
  std::uint64_t seed = 1;
  /// Length of the measurement window, in slots.
  std::uint32_t measure_slots = 20000;
  /// Payload per message; 1-byte DM1 packets, as in the paper.
  std::size_t payload_bytes = 1;
};

// ---- Fig. 11: slave RF activity, active vs sniff ----

struct SlaveActivityRow {
  /// Tsniff or Thold in slots; nullopt for the active-mode baseline.
  std::optional<std::uint32_t> mode_parameter;
  /// Measured TX/RX duty cycles of the slave radio.
  RfActivity slave;
};

struct SniffActivityConfig {
  /// Replication seed: the measure stage reseeds the environment with it.
  std::uint64_t seed = 1;
  /// Master sends data to the slave with this fixed period (paper: 100).
  std::uint32_t data_period_slots = 100;
  /// Length of the measurement window, in slots.
  std::uint32_t measure_slots = 20000;
  /// Payload per message; 17 bytes = a full DM1.
  std::size_t payload_bytes = 17;
};

// ---- Fig. 12: slave RF activity, active vs hold ----

struct HoldActivityConfig {
  /// Replication seed: the measure stage reseeds the environment with it.
  std::uint64_t seed = 1;
  /// Gap between consecutive hold cycles (covers resynchronisation).
  std::uint32_t inter_hold_gap_slots = 8;
  /// Measure at least this many slots (and >= 6 hold cycles).
  std::uint32_t min_measure_slots = 20000;
};

// ---- Extension: packet type vs throughput under noise (paper section 2
//      lists this analysis as a design goal of the model) ----

struct ThroughputRow {
  /// ACL packet type under test.
  baseband::PacketType type = baseband::PacketType::kDm1;
  /// Channel bit error rate during the connected phase.
  double ber = 0.0;
  /// Application-layer goodput over the measurement window.
  double goodput_kbps = 0.0;
  /// Messages delivered to the slave's L2CAP during the window.
  std::uint64_t delivered_messages = 0;
  /// Baseband retransmissions during the window.
  std::uint64_t retransmissions = 0;
};

struct ThroughputConfig {
  /// Replication seed: the measure stage reseeds the environment with it.
  std::uint64_t seed = 1;
  /// Length of the measurement window, in slots.
  std::uint32_t measure_slots = 8000;
};

// ---- Extension: coexistence of two piconets on one 79-channel medium ----

struct CoexistenceRow {
  /// Neighbour master's data period in slots (0 = neighbour silent).
  std::uint32_t neighbour_period_slots = 0;
  /// Goodput of the saturated victim link over the window.
  double goodput_kbps = 0.0;
  /// Victim-link retransmissions during the window.
  std::uint64_t retransmissions = 0;
  /// Collided symbol samples observed by the shared channel.
  std::uint64_t collision_samples = 0;
};

struct CoexistenceRunConfig {
  /// Replication seed: the measure stage reseeds the environment with it.
  std::uint64_t seed = 2030;
  /// Length of the measurement window, in slots.
  std::uint32_t measure_slots = 24000;
  /// Payload per message on both links (17 bytes = full DM1).
  std::size_t payload_bytes = 17;
};

// ---- warm-up, scaffold and measure stages ----
//
// Cold:  measure(warmup(point, warm_seed), rep_seed)
// Fork:  bytes = warmup(point, warm_seed).save_snapshot()  [once per point]
//        sys = scaffold(point, construction_seed); sys.restore_snapshot(bytes);
//        measure(sys, rep_seed)
// Both reach the boundary in the identical state, so the samples are
// bitwise equal.

/// Creation family (Figs. 6-8): the warm-up is construction at t = 0.
std::unique_ptr<BluetoothSystem> make_creation_system(
    double ber, std::uint32_t timeout_slots, std::uint64_t seed);
/// Reseeds with `replication_seed`, re-randomises the slave clocks (so
/// each replication draws its own clock phases, not the warm-up's) and
/// runs inquiry + page.
CreationSample run_creation_from(BluetoothSystem& sys,
                                 std::uint64_t replication_seed);

/// Backoff ablation: same shape as the creation family.
std::unique_ptr<BluetoothSystem> make_backoff_system(
    std::uint32_t backoff_max_slots, std::uint64_t seed);
BackoffSample run_backoff_from(BluetoothSystem& sys,
                               std::uint64_t replication_seed);

/// Connected-phase warm-up result: creation retries perturb the seed, so
/// the scaffold must be constructed from the seed that finally succeeded.
struct ConnectedWarmup {
  std::unique_ptr<BluetoothSystem> system;
  /// Seed of the successful construction (scaffold input).
  std::uint64_t construction_seed = 0;
};

ConnectedWarmup master_activity_warmup(std::uint64_t warm_seed);
std::unique_ptr<BluetoothSystem> master_activity_scaffold(
    std::uint64_t construction_seed);
MasterActivityRow run_master_activity_from(BluetoothSystem& sys, double duty,
                                           const MasterActivityConfig& cfg);

ConnectedWarmup sniff_activity_warmup(std::uint64_t warm_seed);
std::unique_ptr<BluetoothSystem> sniff_activity_scaffold(
    std::uint64_t construction_seed);
SlaveActivityRow run_sniff_activity_from(BluetoothSystem& sys,
                                         std::optional<std::uint32_t> tsniff,
                                         const SniffActivityConfig& cfg);

ConnectedWarmup hold_activity_warmup(std::uint64_t warm_seed);
std::unique_ptr<BluetoothSystem> hold_activity_scaffold(
    std::uint64_t construction_seed);
SlaveActivityRow run_hold_activity_from(BluetoothSystem& sys,
                                        std::optional<std::uint32_t> thold,
                                        const HoldActivityConfig& cfg);

/// The throughput warm-up depends on the packet type (it is part of the
/// link configuration), not on the BER (creation runs noiselessly).
ConnectedWarmup throughput_warmup(baseband::PacketType type,
                                  std::uint64_t warm_seed);
std::unique_ptr<BluetoothSystem> throughput_scaffold(
    baseband::PacketType type, std::uint64_t construction_seed);
ThroughputRow run_throughput_from(BluetoothSystem& sys,
                                  baseband::PacketType type, double ber,
                                  const ThroughputConfig& cfg);

/// Coexistence: creation retries re-enable scanning inside one
/// environment (no reconstruction), so scaffold and warm-up share the
/// seed. The warm-up throws if either piconet fails to form.
std::unique_ptr<TwoPiconets> coexistence_scaffold(std::uint64_t seed);
std::unique_ptr<TwoPiconets> coexistence_warmup(std::uint64_t warm_seed);
CoexistenceRow run_coexistence_from(TwoPiconets& net,
                                    std::uint32_t neighbour_period_slots,
                                    const CoexistenceRunConfig& cfg);

}  // namespace btsc::core
