// The noisy channel of the paper's Fig. 2.
//
// One module with one input per Bluetooth device and a resolved output:
//   - a device that is not transmitting drives 'Z' (high impedance);
//   - two or more simultaneous transmitters on the same RF channel produce
//     the undefined value 'X' (collision);
//   - channel noise inverts defined bits with probability BER, controlled
//     by the simulation's random number generator;
//   - the modulator/demodulator delay of the RF blocks is modelled as a
//     fixed latency between drive() and the value appearing on the medium.
//
// Unlike the paper's single-wire model, resolution is per RF channel
// (frequency 0..78): transmissions on different hop frequencies do not
// collide. Setting ChannelConfig::per_frequency = false restores the
// paper's stricter single-wire behaviour.
//
// Burst transport
// ---------------
// The per-bit drive()/sense() contract stays the reference semantics,
// but a packet can be registered as one *burst run* (begin_burst): the
// channel then answers sense() from the packed bit vector and run
// geometry instead of taking one drive event per microsecond, and
// notifies registered Listeners (the radios) when the medium changes so
// idle receivers can stop sampling entirely. Each transmitting port has
// its own run slot. A run is only accepted when it is provably
// equivalent to the per-bit path -- no RF delay, a tracer that accepts
// backfill when tracing, and a medium silent at its frequency (no other
// run, no per-bit defined drive there) -- and it falls back to per-bit
// scheduling the moment a second transmitter drives its frequency, the
// BER changes, or the transmitter aborts.
// Runs on different frequencies never interact, so two piconets
// hopping independently keep both packets batched; collisions still
// happen only on the per-bit path.
//
// The channel is *exclusive* -- a silent medium on every frequency, at
// most one run, and any second defined drive degrades it -- when
// BER > 0 (a masked run draws the shared RNG in per-bit order), when
// per_frequency is off (the paper's single wire), or while a tracer is
// attached (the bus trace resolves every port into one wire, and the
// backfill follows one run).
//
// BER > 0 runs draw the whole packet's noise flips up front as an XOR
// error mask (sim::Rng::fill_error_mask consumes the stream in exactly
// the per-bit order) and expose the corrupted copy as the run's bits; a
// registered sim::RngGuard rewinds/replays the stream if any foreign
// RNG draw lands mid-run, so every seed reproduces the per-bit path
// bit for bit. Traced runs reconstruct the bus waveform afterwards via
// the tracer's time-stamped backfill. docs/ARCHITECTURE.md ("Word-packed
// bit transport & burst delivery" and "Batched error masks") carries
// the full equivalence argument.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "phy/logic4.hpp"
#include "sim/bitvector.hpp"
#include "sim/environment.hpp"
#include "sim/module.hpp"
#include "sim/signal.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"

namespace btsc::phy {

struct ChannelConfig {
  /// Probability that a defined bit on the medium is inverted.
  double ber = 0.0;
  /// Modulator + demodulator latency (paper: "the delay of the modulator
  /// and demodulator RF blocks"). Zero keeps TX and RX bit grids aligned.
  sim::SimTime rf_delay = sim::SimTime::zero();
  /// Resolve collisions per RF channel (true) or on one shared wire as in
  /// the paper's figure (false).
  bool per_frequency = true;
  /// Number of RF channels (79 in the 2.4 GHz ISM band).
  int num_channels = 79;
  /// Enables the burst fast path (word-packed runs + idle-receiver
  /// skipping). Defaults to the process-wide switch; per-instance
  /// override via NoisyChannel::set_burst_transport_enabled(). Purely a
  /// performance mode: results are bit-identical either way.
  bool burst_transport = true;
};

/// Port handle returned by attach(); identifies a device on the channel.
using PortId = int;

class NoisyChannel final : public sim::Module,
                           public sim::Snapshotable,
                           public sim::RngGuard,
                           public sim::RearmHandler {
 public:
  /// A listener's pending per-bit sample event: `anchor` is the first
  /// sample instant of its current enable (the reference sampling order,
  /// see requeue_rx_chains_after()) and `next` the instant the event
  /// fires at.
  struct RxChain {
    sim::SimTime anchor;
    sim::SimTime next;
  };

  /// Burst-transport callbacks implemented by the Radio that owns a
  /// port. Every medium transition is delivered in two phases so lazy
  /// consumers can materialise pending samples against the *old* medium
  /// state before reacting to the new one: first rx_sync() on every
  /// listening port, then the state change, then rx_reevaluate().
  class Listener {
   public:
    /// Phase 1: consume every sample instant at or before now() under
    /// the medium state as it still is.
    virtual void rx_sync() = 0;
    /// Phase 2: the medium changed; pick a new sampling mode.
    virtual void rx_reevaluate() = 0;
    /// The port's own burst run degraded to per-bit: `driven` bits are
    /// already on the air (the channel holds the last one); the owner
    /// must schedule the remainder as per-bit drives.
    virtual void tx_burst_fallback(std::size_t driven) = 0;
    /// The listener's pending per-bit sample event, if it has one.
    virtual std::optional<RxChain> rx_chain() const = 0;
    /// Cancels and re-schedules that pending event at the same instant,
    /// which moves it behind every event already queued there.
    virtual void rx_requeue_chain() = 0;

   protected:
    ~Listener() = default;
  };

  NoisyChannel(sim::Environment& env, std::string name,
               ChannelConfig config = {});
  ~NoisyChannel() override;

  const ChannelConfig& config() const { return config_; }

  /// Changing the BER mid-run degrades every active burst run to per-bit
  /// first: the remaining bits need per-instant noise draws.
  void set_ber(double ber);

  // ---- burst transport switches ----

  /// Process-wide default for newly constructed channels; false makes
  /// every new channel use the per-bit reference path (the `--no-burst`
  /// flag of btsc-sweep). Thread-safe.
  static void set_burst_transport_default(bool enabled);
  static bool burst_transport_default();

  /// Per-instance switch. Disabling degrades every active run to per-bit.
  void set_burst_transport_enabled(bool enabled);
  bool burst_transport_enabled() const { return config_.burst_transport; }

  /// Registers a device; `device_name` is used for tracing/diagnostics.
  PortId attach(const std::string& device_name);
  int num_ports() const { return static_cast<int>(ports_.size()); }

  /// RearmHandler: rebuilds pending rf_delay apply timers from their
  /// descriptors after a snapshot restore.
  void rearm_timer(std::uint16_t kind, std::uint64_t payload,
                   sim::SimTime when) override;

  /// Wires the burst-transport listener of `port` (done by the Radio).
  void set_listener(PortId port, Listener* listener);

  /// Declares the receiver of `port` tuned to `freq` (-1: not
  /// listening). Listening ports get the two-phase medium
  /// notifications.
  void set_listening(PortId port, int freq);

  /// Drives a value from `port` on RF channel `freq`. kZ releases the
  /// medium. Takes effect after the configured rf_delay. Noise is applied
  /// once per driven bit, matching the paper's "inversion of the bit in
  /// the channel".
  void drive(PortId port, int freq, Logic4 value);

  /// Resolved value seen by a receiver tuned to `freq`.
  Logic4 sense(int freq) const;

  /// Same-instant sampling order. Receivers sample on one shared grid,
  /// and the kernel runs same-instant events in schedule order. The
  /// per-bit reference keeps one unbroken sample chain per enabled
  /// receiver, so at every shared instant receivers sample in the order
  /// they were enabled -- which decides, e.g., which receiver's
  /// collision draw comes first. The burst transport restarts a chain
  /// whenever a receiver leaves a lazy mode, queueing it last; the
  /// restarting listener of `port` calls this to move every
  /// same-instant chain the reference orders after it (later anchor;
  /// equal anchors in port order) behind it again, in that order.
  void requeue_rx_chains_after(PortId port);

  /// True if any port is currently driving a defined value (any freq).
  bool busy() const;

  // ---- burst runs (called by the owning Radio) ----

  /// Registers the whole of `bits` as one uncontended run from `port` on
  /// `freq`, one bit per `period` starting now. Returns false -- and
  /// changes nothing -- when the run cannot be batched (burst transport
  /// off, RF delay, a tracer without backfill support, or a medium not
  /// silent at `freq`, or anywhere when exclusive); the caller must then
  /// drive per-bit. `bits` must stay alive
  /// and unchanged until the run ends. On success the first bit is on
  /// the medium immediately (as a per-bit drive would be). BER > 0 runs
  /// pre-apply noise as an error mask drawn in per-bit order; receivers
  /// see the corrupted copy through rx_medium()/sense().
  bool begin_burst(PortId port, int freq, const sim::BitVector& bits,
                   sim::SimTime period);

  /// True while `port` has an active burst run.
  bool burst_active(PortId port) const {
    return port >= 0 && port < num_ports() && run_of(port).active;
  }

  /// Bits of `port`'s active run already on the air (event-order exact).
  std::size_t burst_elapsed(PortId port) const {
    assert(burst_active(port));
    return run_bits_elapsed(run_of(port));
  }

  /// Completes `port`'s run at its natural end (caller's end-of-packet
  /// timer): consumes listeners, releases the medium, reports the number
  /// of bits driven.
  std::size_t finish_burst(PortId port);

  /// Aborts `port`'s run mid-flight and releases the medium; returns the
  /// number of bits that made it onto the air.
  std::size_t abort_burst(PortId port);

  // ---- medium view for receivers ----

  /// What a receiver tuned to `freq` currently faces.
  struct RxMedium {
    /// Some port drives a defined value visible at this frequency
    /// through per-bit drives (collisions and noisy transmissions live
    /// here) -- the receiver must sample per bit.
    bool live = false;
    /// The burst run visible at this frequency (nullptr when none).
    const sim::BitVector* run_bits = nullptr;
    sim::SimTime run_start;
    sim::SimTime run_period;
  };
  RxMedium rx_medium(int freq) const;

  // ---- checkpointing ----

  /// Saves/restores the mutable channel state: BER and burst switch,
  /// per-port drive/listening state, every active run's geometry and the
  /// noise/collision counters. The runs' packed bits are NOT part of the
  /// stream -- they live in the transmitting Radios' tx buffers, and each
  /// radio re-links its run via rebind_run_bits() during its own restore
  /// (the restore order guarantees it runs after the channel's). A
  /// masked run stores only the pre-fill RNG state: the error mask is a
  /// pure function of (state, BER, length) and is regenerated on
  /// restore. Throws sim::SnapshotError while a traced run holds the
  /// tracer -- the waveform buffer is not snapshotable -- and on restore
  /// for a run whose port or frequency is out of range or taken.
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotReader& r) override;

  /// Re-links the bit storage of `port`'s run (the transmitter's clean
  /// bits) after a restore; rebuilds the error mask for a masked run.
  /// Only valid while `port` has a restored run.
  void rebind_run_bits(PortId port, const sim::BitVector* bits);

  // ---- tracing (called by the owning system) ----

  /// Materialises the backfilled bus transitions of a still-active
  /// traced run up to now(). Must be called before the tracer is closed
  /// or detached, or the run's waveform tail is lost.
  void flush_trace_backfill();

  // ---- RngGuard ----

  /// A foreign RNG draw landed while a masked run was in flight: rewind
  /// the upfront mask fill to the per-bit draw position and degrade the
  /// remainder of the run to per-bit scheduling (or, if every bit has
  /// already elapsed, simply stand down -- the stream position matches
  /// the per-bit reference exactly).
  void rng_external_draw() override;

  // ---- diagnostics ----
  std::uint64_t bits_driven() const { return bits_driven_; }
  std::uint64_t bits_flipped() const {
    std::uint64_t flips = bits_flipped_;
    // Flips of an in-flight masked run are accounted lazily: only the
    // elapsed prefix of the mask has "happened" yet.
    if (masked_ >= 0) {
      flips += mask_flips_before(run_bits_elapsed(run_of(masked_)));
    }
    return flips;
  }
  std::uint64_t collision_samples() const { return collision_samples_; }
  /// Bits transported through accepted burst runs (perf telemetry).
  std::uint64_t bits_burst() const { return bits_burst_; }
  /// Runs degraded to per-bit by contention/abort/reconfiguration.
  std::uint64_t burst_fallbacks() const { return burst_fallbacks_; }

 private:
  /// One port's burst run slot.
  struct Run {
    bool active = false;
    int freq = 0;
    /// What the medium shows (noisy_ for the masked run).
    const sim::BitVector* bits = nullptr;
    /// The transmitter's storage, as passed to begin_burst (equal to
    /// `bits` for unmasked runs). Needed for snapshot rebinding.
    const sim::BitVector* clean = nullptr;
    sim::SimTime start;
    sim::SimTime period;
  };

  // Descriptor kind of the tagged rf_delay apply timers (snapshots
  // carry them; see rearm_timer).
  static constexpr std::uint16_t kTimerApply = 1;

  static std::uint64_t pack_apply(PortId port, int freq, Logic4 value);
  void schedule_apply(std::uint64_t payload, sim::SimTime when);
  void apply(PortId port, int freq, Logic4 value);
  void refresh_trace();

  const Run& run_of(PortId port) const {
    return ports_[static_cast<std::size_t>(port)].run;
  }
  Run& run_of(PortId port) {
    return ports_[static_cast<std::size_t>(port)].run;
  }

  /// Index into freqs_: the frequency itself, or 0 for every frequency
  /// on the paper's single wire.
  std::size_t slot(int freq) const {
    return config_.per_frequency ? static_cast<std::size_t>(freq) : 0;
  }

  /// True when the medium admits at most one run and any second defined
  /// drive degrades it (see the header comment).
  bool exclusive() const {
    return config_.ber > 0.0 || !config_.per_frequency ||
           env().tracer() != nullptr;
  }

  /// The run visible at `freq`, or nullptr.
  const Run* run_at(int freq) const {
    const PortId p = freqs_[slot(freq)].run;
    return p < 0 ? nullptr : &run_of(p);
  }

  /// Draws `port`'s error mask (saving the pre-fill RNG state first),
  /// builds the corrupted copy and registers the RNG guard.
  void arm_masked_run(PortId port, const sim::BitVector& bits);

  /// Rebuilds mask_/noisy_ for `bits` from mask_base_ (shared by
  /// arm_masked_run and the snapshot rebind path).
  void build_masked_buffers(const sim::BitVector& bits, sim::Rng& rng);

  /// Number of set bits in the first `k` mask positions.
  std::size_t mask_flips_before(std::size_t k) const;

  /// Emits the net bus transitions of the traced run's bits
  /// [backfilled_, k) at their per-bit instants (Tracer::change_at under
  /// the open hold).
  void backfill_to(std::size_t k);

  /// Bits of `run` already on the air, honouring the event tiebreak: a
  /// bit whose drive instant equals now() counts only when the kernel is
  /// not mid-dispatch (outside dispatch every same-instant event has
  /// fired; inside, the virtual drive event is ordered after the
  /// currently running one).
  std::size_t run_bits_elapsed(const Run& run) const;

  /// Current bit of `run` visible to a same-instant observer (sense()).
  Logic4 run_value_now(const Run& run) const;

  /// Degrades `port`'s run to per-bit scheduling (two-phase listener
  /// notification + tx_burst_fallback on the owner).
  void fallback_run(PortId port);

  /// Degrades every active run, in port order.
  void fallback_all_runs();

  /// Tears `port`'s run down after consuming listeners; `driven` bits
  /// are accounted and the port is left driving `last` (kZ to release).
  std::size_t settle_run(PortId port, std::size_t driven, Logic4 last);

  /// Per-bit defined-drive bookkeeping of one port changing value.
  void count_defined(int freq, int delta);

  void notify_sync();
  void notify_reevaluate();

  /// True when any port drives a defined value visible at `freq` via
  /// per-bit drives (runs do not count).
  bool live_at(int freq) const { return freqs_[slot(freq)].defined > 0; }

  ChannelConfig config_;
  struct Port {
    std::string name;
    int freq = -1;
    Logic4 value = Logic4::kZ;
    Listener* listener = nullptr;
    int rx_freq = -1;  // -1: not listening
    Run run;           // this port's burst run slot
  };
  std::vector<Port> ports_;
  /// What one frequency (see slot()) carries, so every lookup on the
  /// transport path is O(1): the port of its run (-1: none) and the
  /// number of per-bit defined drives.
  struct Freq {
    PortId run = -1;
    int defined = 0;
  };
  std::vector<Freq> freqs_;
  int live_runs_ = 0;
  bool rearm_registered_ = false;
  // Masked-run machinery. Masked runs only exist under BER > 0, which is
  // exclusive, so at most one is in flight: masked_ is its port (-1:
  // none). The buffers keep their capacity across runs, so steady-state
  // masked bursts allocate nothing.
  PortId masked_ = -1;
  /// The per-bit RNG draw order has fully caught up with the upfront
  /// mask fill (all bits elapsed when a foreign draw arrived); no rewind
  /// is needed at settle time.
  bool mask_synced_ = false;
  sim::BitVector mask_;   // XOR error mask of the masked run
  sim::BitVector noisy_;  // clean ^ mask_, what the medium shows
  std::array<std::uint64_t, 4> mask_base_{};  // RNG state before the fill
  // Traced-run backfill: traced_ is the port of the run holding the
  // tracer (-1: no hold open); tracing is exclusive, so there is one.
  PortId traced_ = -1;
  std::size_t backfilled_ = 0;  // run bits already backfilled
  int defined_ports_ = 0;  // ports currently driving a defined value
  bool notifying_ = false;
  std::uint64_t bits_driven_ = 0;
  std::uint64_t bits_flipped_ = 0;
  mutable std::uint64_t collision_samples_ = 0;
  std::uint64_t bits_burst_ = 0;
  std::uint64_t burst_fallbacks_ = 0;
  // Traced view of the fully-resolved wire (all frequencies), matching the
  // "channel" net of the paper's figure.
  std::unique_ptr<sim::Signal<Logic4>> bus_trace_;
};

}  // namespace btsc::phy
