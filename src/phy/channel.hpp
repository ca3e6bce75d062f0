// The noisy channel of the paper's Fig. 2.
//
// One module with one input per Bluetooth device and a resolved output:
//   - a device that is not transmitting drives 'Z' (high impedance);
//   - two or more simultaneous transmitters on the same RF channel produce
//     the undefined value 'X' (collision);
//   - channel noise inverts defined bits with probability BER, controlled
//     by the simulation's random number generator.
//
// Two fixed model choices deviate from the paper (docs/ARCHITECTURE.md,
// "Fixed model choices"). Resolution is per RF channel (frequency
// 0..kNumRfChannels-1): transmissions on different hop frequencies do not
// collide, where the paper's figure resolves one shared wire. And a drive
// reaches the medium at once: the RF blocks' modulator/demodulator delay
// is zero, so TX and RX bit grids stay aligned.
//
// Noise streams
// -------------
// Each port owns its noise: a NoiseStream (phy/noise.hpp) seeded as
// Rng::derive_stream_seed(seed, kNoiseStreamRole, port) from the
// environment seed at attach() and at every Environment::reseed(). The
// stream holds the gap to the port's next flipped bit, so noise costs one
// draw per flip, and no other consumer ever draws from it.
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
// equivalent to the per-bit path -- no tracer attached (a traced system
// runs per-bit, the reference path, so the bus waveform is committed
// change by change), and a medium silent at its frequency (no other
// run, no per-bit defined drive there) -- and it falls back to per-bit
// scheduling the moment a second transmitter drives its frequency, the
// BER or the seed changes, or the transmitter aborts.
// Runs on different frequencies never interact, so two piconets
// hopping independently keep both packets batched, noisy or not;
// collisions still happen only on the per-bit path.
//
// A BER > 0 run draws the whole packet's flips from its port's stream up
// front, and receivers see the packet with those bits flipped. Per-bit
// drives would have consumed the same gaps in the same order, so that is
// exactly what per-bit transport puts on the air.
// A run that ends at bit k < n (fallback or abort) rewinds the port's
// stream to the run's saved base and replays k bits, O(flips); the
// per-bit remainder then draws what the reference would.
//
// Clean and noisy runs
// --------------------
// A run carries the transmitter's AirPacket (phy/air_packet.hpp), not
// its bits. An accepted run is *clean* when BER is 0 or its port's
// noise gap exceeds the run length (one compare): nothing can corrupt
// it, so the medium shows the packet itself and receivers may take it
// in logical form. A run with a flip inside shows the port's
// FlippedPacket: the same packet plus its flip positions, kept in a
// per-port vector that keeps its capacity. Its access-code words are
// the packet's cached code XOR the flips, and a receiver may take it in
// logical form too when the flips leave the framing intact. Nothing
// composes a run's bits up front; sense(), the per-bit path, a receiver
// that decodes bits and a checkpoint read them lazily.
//
// docs/ARCHITECTURE.md ("Word-packed bit transport & burst delivery" and
// "Per-port noise streams") carries the full equivalence argument.
#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "phy/air_packet.hpp"
#include "phy/logic4.hpp"
#include "phy/noise.hpp"
#include "sim/bitvector.hpp"
#include "sim/environment.hpp"
#include "sim/module.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"
#include "sim/tracer.hpp"

namespace btsc::phy {

/// Number of RF channels (79 in the 2.4 GHz ISM band).
inline constexpr int kNumRfChannels = 79;

/// Stream role of the per-port noise streams under the environment seed.
inline constexpr std::uint64_t kNoiseStreamRole = 0x4E4F495345ull;  // "NOISE"

struct ChannelConfig {
  /// Probability that a defined bit on the medium is inverted.
  double ber = 0.0;
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
                           public sim::SeededStreams {
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
  ~NoisyChannel();

  NoisyChannel(const NoisyChannel&) = delete;
  NoisyChannel& operator=(const NoisyChannel&) = delete;

  /// Changing the BER mid-run degrades every active burst run to per-bit
  /// first (their flips were drawn under the old BER); then every
  /// port draws a fresh gap under the new one.
  void set_ber(double ber);

  /// Re-derives every port's noise stream from `seed` (called by
  /// Environment::reseed); active runs degrade to per-bit first.
  void reseed_streams(std::uint64_t seed) override;

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
  /// The port's noise stream derives from the environment seed. Throws
  /// while a burst run is active (receivers hold pointers into the
  /// ports' run storage).
  PortId attach(const std::string& device_name);
  int num_ports() const { return static_cast<int>(ports_.size()); }

  /// Wires the burst-transport listener of `port` (done by the Radio).
  void set_listener(PortId port, Listener* listener);

  /// Declares the receiver of `port` tuned to `freq` (-1: not
  /// listening). Listening ports get the two-phase medium
  /// notifications.
  void set_listening(PortId port, int freq);

  /// Drives a value from `port` on RF channel `freq`. kZ releases the
  /// medium. Takes effect at once. Noise is applied once per driven
  /// defined bit from the port's stream, matching the paper's "inversion
  /// of the bit in the channel".
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

  /// Registers the whole of `packet` as one uncontended run from `port`
  /// on `freq`, one bit per `period` starting now. Returns false -- and
  /// changes nothing -- when the run cannot be batched (burst transport
  /// off, a tracer attached, or a medium not silent at `freq`); the
  /// caller must then drive per-bit. `packet` must stay alive and
  /// unchanged until the run ends. On success the first bit is on the
  /// medium immediately (as a per-bit drive would be). A clean run shows
  /// `packet` itself; a run with a flip inside draws its flips from the
  /// port's stream and shows the port's FlippedPacket of `packet`, which
  /// receivers see through rx_medium()/sense().
  bool begin_burst(PortId port, int freq, const AirPacket& packet,
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
    /// The burst run visible at this frequency (nullptr when none): the
    /// transmitter's packet for a clean run, else its flipped view.
    const AirPacket* run = nullptr;
    sim::SimTime run_start;
    sim::SimTime run_period;
  };
  RxMedium rx_medium(int freq) const;

  // ---- checkpointing ----

  /// Saves/restores the mutable channel state: BER and burst switch,
  /// per-port drive/listening state, every active run's geometry and the
  /// noise/collision counters. The runs' packets are NOT part of the
  /// stream -- they live in the transmitting Radios, and each radio
  /// re-links its run via rebind_run_bits() during its own restore (the
  /// restore order guarantees it runs after the channel's). Each port's
  /// noise stream is saved; a noisy run stores only its base stream,
  /// since its flips are a pure function of (base, BER, length) and are
  /// redrawn on rebind. Restore throws sim::SnapshotError for a run whose
  /// port or frequency is out of range or taken.
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotReader& r) override;

  /// Re-links `port`'s run to the transmitter's packet after a restore;
  /// redraws the flips of a run with a flip inside. Only valid while
  /// `port` has a restored run.
  void rebind_run_bits(PortId port, const AirPacket* packet);

  // ---- diagnostics ----
  // Both count what the per-bit reference has driven by now: an
  // in-flight run contributes its elapsed bits and their flips.
  std::uint64_t bits_driven() const {
    std::uint64_t bits = bits_driven_;
    for (const Port& p : ports_) {
      if (p.run.active) bits += run_bits_elapsed(p.run);
    }
    return bits;
  }
  std::uint64_t bits_flipped() const {
    std::uint64_t flips = bits_flipped_;
    for (const Port& p : ports_) {
      if (!p.run.active || !p.run.noisy) continue;
      NoiseStream replay = p.run.base;
      flips += replay.advance(run_bits_elapsed(p.run), nullptr, rate_);
    }
    return flips;
  }
  std::uint64_t collision_samples() const { return collision_samples_; }
  /// Bits transported through accepted burst runs (perf telemetry).
  std::uint64_t bits_burst() const { return bits_burst_; }
  /// Runs degraded to per-bit by contention/abort/reconfiguration.
  std::uint64_t burst_fallbacks() const { return burst_fallbacks_; }

 private:
  /// The checkpoint layout, shared by save_state and restore_state.
  template <class Self, class Ar>
  static void io(Self& s, Ar& a);

  /// The burst-run table stays a hand-written pair: save walks the active
  /// runs, load range-checks and re-claims each one's port and frequency.
  void io_runs(sim::SnapshotWriter& w) const;
  void io_runs(sim::SnapshotReader& r);

  struct Port;

  /// One port's burst run slot.
  struct Run {
    bool active = false;
    int freq = 0;
    /// What the medium shows: the transmitter's packet for a clean run,
    /// the port's flipped view of it for a run with a flip inside.
    const AirPacket* shown = nullptr;
    /// Run length in bits.
    std::size_t len = 0;
    sim::SimTime start;
    sim::SimTime period;
    /// BER > 0: the port's stream before the run's flips were drawn,
    /// and their count.
    bool noisy = false;
    NoiseStream base;
    std::uint64_t flips = 0;
  };

  void refresh_trace();

  const Run& run_of(PortId port) const {
    return ports_[static_cast<std::size_t>(port)].run;
  }
  Run& run_of(PortId port) {
    return ports_[static_cast<std::size_t>(port)].run;
  }

  /// The run visible at `freq`, or nullptr.
  const Run* run_at(int freq) const {
    const PortId p = freqs_[static_cast<std::size_t>(freq)].run;
    return p < 0 ? nullptr : &run_of(p);
  }

  /// Shows `packet` on the medium for `p`'s run, drawing its flips from
  /// `stream`: a clean run shows the packet itself, a run with a flip
  /// inside the port's flipped view of it (begin_burst advances the
  /// port's own stream; rebind_run_bits a scratch copy of the base).
  void show_run(Port& p, NoiseStream& stream, const AirPacket& packet);

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
  bool live_at(int freq) const {
    return freqs_[static_cast<std::size_t>(freq)].defined > 0;
  }

  ChannelConfig config_;
  FlipRate rate_;  // config_.ber with its gap-sampler table
  struct Port {
    std::string name;
    int freq = -1;
    Logic4 value = Logic4::kZ;
    Listener* listener = nullptr;
    int rx_freq = -1;  // -1: not listening
    NoiseStream noise;  // this port's noise stream
    /// The port's noisy run: its packet and flip positions.
    FlippedPacket noisy;
    Run run;  // this port's burst run slot
  };
  std::vector<Port> ports_;
  /// What one frequency carries, so every lookup on the transport path
  /// is O(1): the port of its run (-1: none) and the number of per-bit
  /// defined drives.
  struct Freq {
    PortId run = -1;
    int defined = 0;
  };
  std::array<Freq, kNumRfChannels> freqs_{};
  int live_runs_ = 0;
  int defined_ports_ = 0;  // ports currently driving a defined value
  bool notifying_ = false;
  std::uint64_t bits_driven_ = 0;
  std::uint64_t bits_flipped_ = 0;
  mutable std::uint64_t collision_samples_ = 0;
  std::uint64_t bits_burst_ = 0;
  std::uint64_t burst_fallbacks_ = 0;
  // Traced view of the fully-resolved wire (all frequencies), matching the
  // "channel" net of the paper's figure.
  std::optional<sim::TraceLine> bus_trace_;
};

}  // namespace btsc::phy
