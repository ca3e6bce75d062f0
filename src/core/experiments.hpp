// Experiment runners: one function per figure of the paper, plus the
// packet-type throughput analysis the paper names as a goal of the model.
//
// Three levels of API:
//  * run_*_replication / run_* — ONE independent simulation from ONE
//    seed. These are the bodies handed to runner::SweepRunner, which
//    spreads them across threads; they must derive all randomness from
//    the seed they are given and touch no shared state.
//  * run_* point/row functions — serial convenience wrappers aggregating
//    a default replication count, used by the unit tests.
//  * staged (checkpoint/fork) variants — the same replication split into
//    an explicit warm-up stage (driven by a dedicated warm-up seed,
//    shared by every replication of a point) and a measure stage (driven
//    by the replication seed, applied by reseeding the environment RNG
//    at the stage boundary). A cold staged replication re-runs the
//    warm-up; a forked one restores it from a snapshot -- both produce
//    bitwise-identical samples, which the runner's forked-vs-cold gates
//    assert.
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

/// Knobs of the creation experiment (Figs. 6-8).
struct CreationConfig {
  /// Independent replications per BER point.
  int seeds = 20;
  /// Inquiry and page timeout, in slots. Paper: both 1.28 s (2048 slots).
  std::uint32_t timeout_slots = 2048;
  /// First replication seed; replication s runs with base_seed + s.
  std::uint64_t base_seed = 1000;
};

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

/// Runs ONE 2-device creation (inquiry, then page if the inquiry
/// succeeded) at the given BER from the given seed.
CreationSample run_creation_replication(double ber, std::uint64_t seed,
                                        std::uint32_t timeout_slots);

/// Simulates `cfg.seeds` independent 2-device creations at the given BER.
CreationPoint run_creation_point(double ber, const CreationConfig& cfg);

// ---- Ablation: inquiry backoff ceiling ----

/// One noiseless inquiry run with a non-default random-backoff ceiling
/// (the spec fixes 1023; the ablation sweeps it). Returns success and
/// slots against the paper's 1.28 s timeout.
struct BackoffSample {
  bool success = false;
  std::uint64_t slots = 0;
};

BackoffSample run_backoff_replication(std::uint32_t backoff_max_slots,
                                      std::uint64_t seed);

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
  /// Simulation seed (sweeps derive one per replication).
  std::uint64_t seed = 1;
  /// Length of the measurement window, in slots.
  std::uint32_t measure_slots = 20000;
  /// Payload per message; 1-byte DM1 packets, as in the paper.
  std::size_t payload_bytes = 1;
};

MasterActivityRow run_master_activity(double duty,
                                      const MasterActivityConfig& cfg);

// ---- Fig. 11: slave RF activity, active vs sniff ----

struct SlaveActivityRow {
  /// Tsniff or Thold in slots; nullopt for the active-mode baseline.
  std::optional<std::uint32_t> mode_parameter;
  /// Measured TX/RX duty cycles of the slave radio.
  RfActivity slave;
};

struct SniffActivityConfig {
  /// Simulation seed (sweeps derive one per replication).
  std::uint64_t seed = 1;
  /// Master sends data to the slave with this fixed period (paper: 100).
  std::uint32_t data_period_slots = 100;
  /// Length of the measurement window, in slots.
  std::uint32_t measure_slots = 20000;
  /// Payload per message; 17 bytes = a full DM1.
  std::size_t payload_bytes = 17;
};

/// tsniff == nullopt measures the active-mode baseline.
SlaveActivityRow run_sniff_activity(std::optional<std::uint32_t> tsniff,
                                    const SniffActivityConfig& cfg);

// ---- Fig. 12: slave RF activity, active vs hold ----

struct HoldActivityConfig {
  /// Simulation seed (sweeps derive one per replication).
  std::uint64_t seed = 1;
  /// Gap between consecutive hold cycles (covers resynchronisation).
  std::uint32_t inter_hold_gap_slots = 8;
  /// Measure at least this many slots (and >= 6 hold cycles).
  std::uint32_t min_measure_slots = 20000;
};

/// thold == nullopt measures the idle active-mode baseline (the paper's
/// flat 2.6% line).
SlaveActivityRow run_hold_activity(std::optional<std::uint32_t> thold,
                                   const HoldActivityConfig& cfg);

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
  /// Simulation seed (sweeps derive one per replication).
  std::uint64_t seed = 1;
  /// Length of the measurement window, in slots.
  std::uint32_t measure_slots = 8000;
};

ThroughputRow run_throughput(baseband::PacketType type, double ber,
                             const ThroughputConfig& cfg);

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
  /// Simulation seed (sweeps derive one per replication).
  std::uint64_t seed = 2030;
  /// Length of the measurement window, in slots.
  std::uint32_t measure_slots = 24000;
  /// Payload per message on both links (17 bytes = full DM1).
  std::size_t payload_bytes = 17;
};

/// Builds two coexisting piconets, saturates the victim link and ramps
/// the neighbour's offered load; one call = one replication.
CoexistenceRow run_coexistence(std::uint32_t neighbour_period_slots,
                               const CoexistenceRunConfig& cfg);

// ---- staged (checkpoint/fork) variants ----
//
// Every family splits into:
//   warm-up  — builds the system with the warm-up seed and simulates the
//              replication-independent prefix (for the creation family
//              that is construction only; for the connected-phase
//              studies it is piconet creation). Ends at a settled,
//              snapshotable instant.
//   scaffold — re-runs ONLY the construction path of the warm-up (the
//              structural twin a snapshot restores into).
//   run_*_from — the measure stage: reseeds the environment RNG with the
//              replication seed and simulates the measured window.
//
// Cold fork:  measure(warmup(point, warm_seed), rep_seed)
// Warm fork:  bytes = warmup(...).save_snapshot()  [once per point]
//             sys = scaffold(...); sys.restore_snapshot(bytes);
//             measure(sys, rep_seed)
// Both paths reach the boundary in the identical state, so the samples
// are bitwise equal.

/// Creation family (Figs. 6-8): the warm-up is construction at t = 0.
std::unique_ptr<BluetoothSystem> make_creation_system(
    double ber, std::uint32_t timeout_slots, std::uint64_t seed);
/// Reseeds with `replication_seed`, re-randomises the slave clocks (the
/// per-replication randomness the legacy path drew at construction) and
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
/// cfg.seed is the replication seed here (reseeds at the boundary).
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
