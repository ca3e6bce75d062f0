// Radio front-end model for one Bluetooth device.
//
// Owns the device's port on the NoisyChannel and the two RF enable lines
// the paper plots in its waveform figures (enable_tx_RF, enable_rx_RF).
// The Bluetooth protocol switches the RF blocks on only when necessary;
// the time integrals of these enables are exactly the "RF activity"
// metric of the paper's Figs. 10-12 and the input to the power model.
//
// Bit timing: the symbol rate is 1 Mbit/s, so the transmitter drives one
// bit per microsecond on the channel, and the receiver samples the medium
// at +250 ns past the bit grid -- an offset that stays strictly inside
// the bit period for transmissions aligned to either the even (integer
// microsecond) or odd (half-microsecond) half-slot grid.
//
// Burst transport
// ---------------
// With burst transport enabled (see NoisyChannel), the radio avoids the
// one-event-per-bit hot path in both directions:
//
//  * TX: an uncontended packet registers as one channel burst run plus a
//    single end-of-packet timer. The radio carries the transmitter's
//    AirPacket, not its bits: a run is never composed unless a
//    receiver, a fallback or a checkpoint reads its bits. Noise does
//    not force per-bit: the channel draws a noisy run's flips from the
//    port's noise stream up front and shows the packet with their
//    positions (phy::FlippedPacket). The per-bit timer chain -- which reads the packet's bits -- runs when
//    the channel refuses the run (a tracer is attached: traced systems
//    run per-bit) or as the fallback (contention, mid-run
//    reconfiguration).
//  * RX: a receiver that implements BurstRxSink is driven lazily. While
//    the medium at its frequency is silent it takes NO sampling events:
//    pending all-'Z' samples are materialised in bulk when something
//    changes. While a burst run is on the air it feeds the sink the
//    run's packet, which the sink may take in logical form (a clean run)
//    or read as bits. In both cases the radio first *probes* the
//    sink for the earliest sample whose processing has an externally
//    visible effect (sync detection, packet delivery, an RNG draw) and
//    schedules one timer exactly there, so every handler still fires at
//    precisely the instant the per-bit path would have fired it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "phy/channel.hpp"
#include "phy/logic4.hpp"
#include "sim/bitvector.hpp"
#include "sim/module.hpp"
#include "sim/snapshot.hpp"
#include "sim/time.hpp"
#include "sim/tracer.hpp"

namespace btsc::phy {

/// Duration of one transmitted symbol (1 Mbit/s raw rate).
inline constexpr sim::SimTime kBitPeriod = sim::SimTime::us(1);

/// Batched receiver interface (implemented by baseband::Receiver). The
/// radio feeds it runs of samples: `run == nullptr` means a run of 'Z'
/// (silent medium, demodulator slices the noise floor); otherwise the
/// samples are the defined bits [first..first+count) of the packet the
/// medium shows. A sink reads those through run->bits() or, for a packet
/// it recognises, from the packet's logical form.
class BurstRxSink {
 public:
  /// Some n <= count such that processing samples [first, first+n)
  /// produces NO externally visible effect -- no handler/hook
  /// invocation and no RNG draw. Returning less than the true quiet
  /// prefix is allowed (the radio then runs the sample at n through the
  /// full per-sample path and asks again); returning count promises the
  /// whole span is quiet. May settle the sink's internal representation
  /// but must not change its observable state.
  virtual std::size_t quiet_prefix(const AirPacket* run, std::size_t first,
                                   std::size_t count) = 0;

  /// Processes `n` samples previously certified quiet by quiet_prefix.
  virtual void consume_quiet(const AirPacket* run, std::size_t first,
                             std::size_t n) = 0;

  /// Full per-sample entry; may fire handlers and draw RNG. Must behave
  /// exactly like the per-bit sink path.
  virtual void on_sample(Logic4 v) = 0;

  /// The effect sample `at` of `run` (a 'Z' sample when `run` is null),
  /// through the full per-sample path.
  virtual void on_run_sample(const AirPacket* run, std::size_t at) {
    on_sample(run != nullptr ? from_bit(run->bits()[at]) : Logic4::kZ);
  }

 protected:
  ~BurstRxSink() = default;
};

class Radio final : public sim::Module,
                    public NoisyChannel::Listener,
                    public sim::Snapshotable,
                    public sim::RearmHandler {
 public:
  Radio(sim::Environment& env, std::string name, NoisyChannel& channel);
  ~Radio() override;

  // ---- transmitter ----

  /// Starts transmitting `bits` on RF channel `freq`, one bit per
  /// microsecond starting now; tx_busy() falls when the last bit ends
  /// and the medium is released. Requires the transmitter to be idle.
  /// An empty packet sends nothing.
  void transmit(int freq, sim::BitVector bits);

  /// Starts transmitting `packet`, composed only if something reads its
  /// bits. `packet` must stay alive and unchanged until this radio's
  /// next transmission: a checkpoint saves the last packet's bits.
  void transmit(int freq, const AirPacket& packet);

  /// Aborts an in-progress transmission and releases the medium.
  void abort_tx();

  bool tx_busy() const { return tx_busy_; }

  // ---- receiver ----

  /// Wires the sink that receives every sample while the receiver is
  /// enabled: lazily, in batches, when the channel's burst transport is
  /// on, and one on_sample() per bit otherwise.
  void set_burst_rx_sink(BurstRxSink* sink) { burst_sink_ = sink; }

  /// Enables the receiver on `freq`. Sampling starts at the next mid-bit
  /// instant. Disabling stops sampling immediately.
  void enable_rx(int freq);
  void disable_rx();
  bool rx_enabled() const { return rx_on_; }

  /// Retunes while enabled (no-op when disabled).
  void retune_rx(int freq);

  /// Materialises every pending lazy sample at or before now(). Wired
  /// into Receiver::carrier_samples() so LC carrier-sense reads observe
  /// exactly the per-bit counter value.
  void rx_catch_up();

  /// The sink's decode state changed out-of-band (receiver reconfigured
  /// mid-window): re-derive the side-effect barrier.
  void rx_state_changed();

  // ---- activity accounting (Figs. 10-12) ----

  /// Total time the TX/RX chains were enabled since the last reset,
  /// including any interval still in progress.
  sim::SimTime tx_on_time() const;
  sim::SimTime rx_on_time() const;

  /// Starts a fresh measurement window at the current time.
  void reset_activity();

  std::uint64_t bits_sent() const;
  std::uint64_t bits_sampled() const;

  /// This radio's port on the channel (diagnostics/tests).
  PortId port() const { return port_; }

  // ---- NoisyChannel::Listener ----
  void rx_sync() override;
  void rx_reevaluate() override;
  void tx_burst_fallback(std::size_t driven) override;
  std::optional<NoisyChannel::RxChain> rx_chain() const override;
  void rx_requeue_chain() override;

  // ---- checkpointing ----

  /// Saves/restores TX/RX state, the enable lines, the activity
  /// accumulators and the bit counters. The enable lines are saved as
  /// tx_busy()/rx_enabled(), which they equal; a restored mismatch
  /// throws SnapshotError. The last packet is saved as its air bits
  /// (composing it if need be) and restored as those bits; restore
  /// re-links an in-flight burst run to them.
  void save_state(sim::SnapshotWriter& w) const override;
  void restore_state(sim::SnapshotReader& r) override;

  // RearmHandler: rebuilds the TX bit/end-of-burst and RX sample/barrier
  /// timers (and their TimerId members) from descriptors.
  void rearm_timer(std::uint16_t kind, std::uint64_t payload,
                   sim::SimTime when) override;

 private:
  /// The checkpoint layout, shared by save_state and restore_state.
  template <class Self, class Ar>
  static void io(Self& s, Ar& a);

  /// How the receiver is being fed.
  enum class RxMode : std::uint8_t {
    kOff,     // receiver disabled
    kPerBit,  // classic one-event-per-sample chain
    kSkip,    // silent medium, lazy 'Z' runs (dormant between barriers)
    kRun,     // consuming a channel burst run lazily
  };

  /// Timer descriptor kinds (see Environment::schedule_tagged). All
  /// radio timers capture only `this`; their state lives in members.
  enum Kind : std::uint16_t {
    kTxNextBit = 1,
    kTxFinishBurst = 2,
    kRxSample = 3,
    kRxBarrier = 4,
  };

  void tx_next_bit();
  void tx_finish_burst();
  void tx_complete();
  void rx_sample();
  void rx_barrier();
  void rx_evaluate();
  /// Schedules the per-bit sample event of sample index rx_consumed_.
  void schedule_rx_sample();
  void cancel_rx_timer();
  /// Pending lazy sample count at or before now().
  std::uint64_t rx_pending() const;
  /// Feeds `n` lazy samples (mode kSkip/kRun) to the burst sink.
  void rx_consume(std::uint64_t n);
  /// Sample instant of lazy sample index `k` (since enable).
  sim::SimTime sample_time(std::uint64_t k) const {
    return rx_anchor_ + kBitPeriod * k;
  }
  /// The last transmitted packet's air bits (empty before the first).
  const sim::BitVector& tx_air_bits() const;
  /// Burst-run bit index visible at lazy sample `k` (< 0: before bit 0).
  std::int64_t run_index_at(std::uint64_t k,
                            const NoisyChannel::RxMedium& m) const;
  bool burst_capable() const;
  /// Sets the enable line and opens or closes an activity interval.
  void account_tx(bool on);
  void account_rx(bool on);

  NoisyChannel& channel_;
  PortId port_;

  // TX state
  bool tx_busy_ = false;
  bool tx_burst_ = false;
  int tx_freq_ = 0;
  /// The packet on the air (or the last one sent): the caller's, or
  /// tx_own_ for raw bits and restored transmissions.
  const AirPacket* tx_packet_ = nullptr;
  BitsPacket tx_own_;
  std::size_t tx_pos_ = 0;
  sim::SimTime tx_start_ = sim::SimTime::zero();
  sim::TimerId tx_timer_ = sim::kInvalidTimer;

  // RX state
  bool rx_on_ = false;
  int rx_freq_ = 0;
  RxMode rx_mode_ = RxMode::kOff;
  BurstRxSink* burst_sink_ = nullptr;
  sim::TimerId rx_timer_ = sim::kInvalidTimer;
  sim::SimTime rx_anchor_ = sim::SimTime::zero();  // sample index 0
  std::uint64_t rx_consumed_ = 0;  // lazy samples fed since enable
  /// Absolute index of the scheduled side-effect sample while a lazy
  /// barrier timer is pending; catch-ups stop short of it so the effect
  /// always goes through the full path inside its own event.
  std::uint64_t rx_barrier_index_ = 0;

  // Enable lines (traced): '1' exactly while tx_busy_ / rx_on_
  sim::TraceLine enable_tx_;
  sim::TraceLine enable_rx_;

  // Activity accounting
  sim::SimTime tx_accum_ = sim::SimTime::zero();
  sim::SimTime rx_accum_ = sim::SimTime::zero();
  sim::SimTime tx_since_ = sim::SimTime::zero();  // valid while tx on
  sim::SimTime rx_since_ = sim::SimTime::zero();  // valid while rx on

  std::uint64_t bits_sent_ = 0;
  std::uint64_t bits_sampled_ = 0;
};

}  // namespace btsc::phy
