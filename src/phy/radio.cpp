#include "phy/radio.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

#include "sim/environment.hpp"

namespace btsc::phy {

namespace {

/// "No side effect within any horizon" probe span for silent-medium
/// receivers: larger than any packet or assembly tail can be.
constexpr std::size_t kProbeHorizon = std::size_t{1} << 30;

}  // namespace

Radio::Radio(sim::Environment& env, std::string name, NoisyChannel& channel)
    : Module(env, std::move(name)),
      channel_(channel),
      port_(channel.attach(this->name())),
      enable_tx_(env, child_name("enable_tx_RF"), '0'),
      enable_rx_(env, child_name("enable_rx_RF"), '0') {
  channel_.set_listener(port_, this);
  env.register_rearm(this->name() + ".radio", this, this);
}

Radio::~Radio() { env().unregister_rearm(this); }

// ---------------------------------------------------------------------------
// Transmitter
// ---------------------------------------------------------------------------

void Radio::transmit(int freq, sim::BitVector bits) {
  // Checked before the radio's own packet is overwritten: it may be the
  // one on the air.
  if (tx_busy_) {
    throw std::logic_error(name() + ": transmit while TX busy");
  }
  tx_own_.mutable_bits() = std::move(bits);
  transmit(freq, tx_own_);
}

void Radio::transmit(int freq, const AirPacket& packet) {
  if (tx_busy_) {
    throw std::logic_error(name() + ": transmit while TX busy");
  }
  if (packet.size() == 0) return;
  tx_busy_ = true;
  tx_freq_ = freq;
  tx_packet_ = &packet;
  tx_pos_ = 0;
  tx_start_ = env().now();
  account_tx(true);
  if (channel_.begin_burst(port_, freq, packet, kBitPeriod)) {
    // The whole packet rides as one channel run: a single end-of-packet
    // timer replaces the per-bit chain. The channel calls
    // tx_burst_fallback() if the run degrades mid-flight.
    tx_burst_ = true;
    tx_timer_ = env().schedule_tagged(kBitPeriod * packet.size(),
                                      kTxFinishBurst, 0,
                                      [this] { tx_finish_burst(); }, this);
    return;
  }
  tx_next_bit();
}

const sim::BitVector& Radio::tx_air_bits() const {
  static const sim::BitVector kNone;
  return tx_packet_ != nullptr ? tx_packet_->bits() : kNone;
}

void Radio::tx_next_bit() {
  if (tx_pos_ < tx_packet_->size()) {
    channel_.drive(port_, tx_freq_, from_bit(tx_packet_->bits()[tx_pos_]));
    ++bits_sent_;
    ++tx_pos_;
    tx_timer_ = env().schedule_tagged(kBitPeriod, kTxNextBit, 0,
                                      [this] { tx_next_bit(); }, this);
    return;
  }
  // Past the last bit: release the medium and finish.
  channel_.drive(port_, tx_freq_, Logic4::kZ);
  tx_timer_ = sim::kInvalidTimer;
  tx_complete();
}

void Radio::tx_finish_burst() {
  bits_sent_ += channel_.finish_burst(port_);
  tx_burst_ = false;
  tx_timer_ = sim::kInvalidTimer;
  tx_complete();
}

void Radio::tx_complete() {
  tx_busy_ = false;
  account_tx(false);
}

void Radio::tx_burst_fallback(std::size_t driven) {
  assert(tx_burst_ && driven >= 1);
  tx_burst_ = false;
  bits_sent_ += driven;
  tx_pos_ = driven;
  env().cancel(tx_timer_);
  // Resume the exact per-bit chain at the next undriven bit instant
  // (the channel left bit driven-1 on the air; tx_next_bit at the end
  // of the chain releases the medium as usual).
  const sim::SimTime next = tx_start_ + kBitPeriod * driven;
  const sim::SimTime now = env().now();
  tx_timer_ = env().schedule_tagged(
      next > now ? next - now : sim::SimTime::zero(), kTxNextBit, 0,
      [this] { tx_next_bit(); }, this);
}

void Radio::abort_tx() {
  if (!tx_busy_) return;
  if (tx_burst_) {
    bits_sent_ += channel_.abort_burst(port_);
    tx_burst_ = false;
    env().cancel(tx_timer_);
  } else {
    env().cancel(tx_timer_);
    channel_.drive(port_, tx_freq_, Logic4::kZ);
  }
  tx_timer_ = sim::kInvalidTimer;
  tx_busy_ = false;
  account_tx(false);
}

std::uint64_t Radio::bits_sent() const {
  if (tx_burst_) return bits_sent_ + channel_.burst_elapsed(port_);
  return bits_sent_;
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

bool Radio::burst_capable() const {
  return burst_sink_ != nullptr && channel_.burst_transport_enabled();
}

void Radio::enable_rx(int freq) {
  if (rx_on_) {
    retune_rx(freq);
    return;
  }
  rx_freq_ = freq;
  rx_on_ = true;
  account_rx(true);
  // First sample at grid + 250 ns: transmissions start on integer or
  // half-microsecond boundaries (even/odd half slots), so a quarter-bit
  // sampling offset never coincides with a bit edge of either grid.
  const std::uint64_t now_ns = env().now().as_ns();
  const std::uint64_t period = kBitPeriod.as_ns();
  const std::uint64_t grid = (now_ns / period) * period;
  std::uint64_t first = grid + period / 4;
  if (first <= now_ns) first += period;
  rx_anchor_ = sim::SimTime::ns(first);
  rx_consumed_ = 0;
  channel_.set_listening(port_, rx_freq_);
  rx_evaluate();
}

void Radio::disable_rx() {
  if (!rx_on_) return;
  rx_catch_up();
  rx_on_ = false;
  rx_mode_ = RxMode::kOff;
  cancel_rx_timer();
  channel_.set_listening(port_, -1);
  account_rx(false);
}

void Radio::retune_rx(int freq) {
  if (!rx_on_) {
    rx_freq_ = freq;
    return;
  }
  // Materialise everything heard on the old frequency first.
  rx_catch_up();
  rx_freq_ = freq;
  channel_.set_listening(port_, freq);
  rx_evaluate();
}

void Radio::cancel_rx_timer() {
  env().cancel(rx_timer_);
  rx_timer_ = sim::kInvalidTimer;
}

std::uint64_t Radio::rx_pending() const {
  // RX materialisation is always inclusive of now(): sample instants
  // live on the +250 ns grid, where the per-bit sample event is ordered
  // before every same-instant observer that can reach this code (see
  // docs/ARCHITECTURE.md, "Word-packed bit transport & burst delivery").
  const sim::SimTime now = env().now();
  if (now < rx_anchor_) return 0;
  const std::uint64_t target =
      (now - rx_anchor_).as_ns() / kBitPeriod.as_ns() + 1;
  return target > rx_consumed_ ? target - rx_consumed_ : 0;
}

std::int64_t Radio::run_index_at(std::uint64_t k,
                                 const NoisyChannel::RxMedium& m) const {
  const sim::SimTime t = sample_time(k);
  if (t <= m.run_start) return -1;
  // The bit visible at a sample instant is the last one whose drive
  // instant precedes it in event order: strictly earlier, or equal when
  // the drive chain started on the sample grid (the sample event fires
  // first there) -- hence the -1 ns.
  return static_cast<std::int64_t>(
      ((t - m.run_start).as_ns() - 1) / m.run_period.as_ns());
}

void Radio::rx_consume(std::uint64_t n) {
  if (n == 0) return;
  assert(rx_mode_ == RxMode::kSkip || rx_mode_ == RxMode::kRun);
  if (rx_mode_ == RxMode::kSkip) {
    burst_sink_->consume_quiet(nullptr, 0, static_cast<std::size_t>(n));
  } else {
    const NoisyChannel::RxMedium m = channel_.rx_medium(rx_freq_);
    assert(m.run != nullptr);
    const std::int64_t idx = run_index_at(rx_consumed_, m);
    assert(idx >= 0 && static_cast<std::size_t>(idx) + n <= m.run->size());
    burst_sink_->consume_quiet(m.run, static_cast<std::size_t>(idx),
                               static_cast<std::size_t>(n));
  }
  rx_consumed_ += n;
  bits_sampled_ += n;
}

void Radio::rx_catch_up() {
  if (rx_mode_ != RxMode::kSkip && rx_mode_ != RxMode::kRun) return;
  std::uint64_t n = rx_pending();
  if (env().pending(rx_timer_) && rx_barrier_index_ >= rx_consumed_) {
    // A side-effect sample is scheduled: stop short of it. Its event is
    // still in the queue (it fires after the event running now), and
    // the effect must execute there, not inside a quiet catch-up.
    const std::uint64_t quiet = rx_barrier_index_ - rx_consumed_;
    if (n > quiet) n = quiet;
  }
  rx_consume(n);
}

void Radio::rx_state_changed() {
  if (!rx_on_) return;
  rx_catch_up();
  rx_evaluate();
}

void Radio::rx_sync() { rx_catch_up(); }

void Radio::rx_reevaluate() {
  if (rx_on_) rx_evaluate();
}

void Radio::rx_evaluate() {
  assert(rx_on_);
  const RxMode old = rx_mode_;
  const NoisyChannel::RxMedium m =
      burst_capable() ? channel_.rx_medium(rx_freq_)
                      : NoisyChannel::RxMedium{};
  if (!burst_capable() || (m.run == nullptr && m.live)) {
    // Classic one-event-per-sample chain: always without the burst
    // transport, and otherwise whenever per-bit transmissions (noise,
    // collisions, fallbacks) are on the air.
    rx_mode_ = RxMode::kPerBit;
    // A pending timer from an earlier lazy mode points at a barrier,
    // not at the next sample; replace it.
    if (old != RxMode::kPerBit) cancel_rx_timer();
    if (!env().pending(rx_timer_)) {
      schedule_rx_sample();
      // Leaving a lazy mode restarts the chain, which the per-bit
      // reference never does: restore its same-instant sampling order.
      if (old == RxMode::kSkip || old == RxMode::kRun) {
        channel_.requeue_rx_chains_after(port_);
      }
    }
    return;
  }
  cancel_rx_timer();
  if (m.run != nullptr) {
    // Lazy run consumption: find the earliest sample whose processing
    // has an externally visible effect and wake exactly there. A fully
    // quiet tail needs no timer at all -- the transmitter's end-of-run
    // event re-notifies every listener.
    rx_mode_ = RxMode::kRun;
    const std::int64_t idx = run_index_at(rx_consumed_, m);
    const std::size_t len = m.run->size();
    if (idx >= 0 && static_cast<std::size_t>(idx) < len) {
      const std::size_t avail = len - static_cast<std::size_t>(idx);
      const std::size_t q = burst_sink_->quiet_prefix(
          m.run, static_cast<std::size_t>(idx), avail);
      if (q < avail) {
        rx_barrier_index_ = rx_consumed_ + q;
        rx_timer_ = env().schedule_tagged(
            sample_time(rx_barrier_index_) - env().now(), kRxBarrier, 0,
            [this] { rx_barrier(); }, this);
      }
    }
    return;
  }
  // Silent medium: sleep until a side effect (a warm correlator window
  // or an assembly phase still completing on 'Z' bits) or a medium
  // change, whichever comes first.
  rx_mode_ = RxMode::kSkip;
  const std::size_t q =
      burst_sink_->quiet_prefix(nullptr, 0, kProbeHorizon);
  if (q < kProbeHorizon) {
    rx_barrier_index_ = rx_consumed_ + q;
    rx_timer_ = env().schedule_tagged(
        sample_time(rx_barrier_index_) - env().now(), kRxBarrier, 0,
        [this] { rx_barrier(); }, this);
  }
}

void Radio::schedule_rx_sample() {
  const sim::SimTime next = sample_time(rx_consumed_);
  assert(next > env().now());
  rx_timer_ = env().schedule_tagged(next - env().now(), kRxSample, 0,
                                    [this] { rx_sample(); }, this);
}

std::optional<NoisyChannel::RxChain> Radio::rx_chain() const {
  if (rx_mode_ != RxMode::kPerBit || !env().pending(rx_timer_)) {
    return std::nullopt;
  }
  return NoisyChannel::RxChain{rx_anchor_, sample_time(rx_consumed_)};
}

void Radio::rx_requeue_chain() {
  cancel_rx_timer();
  schedule_rx_sample();
}

void Radio::rx_sample() {
  ++bits_sampled_;
  ++rx_consumed_;
  rx_timer_ = sim::kInvalidTimer;
  const Logic4 v = channel_.sense(rx_freq_);
  if (burst_sink_ != nullptr) burst_sink_->on_sample(v);
  // The sink may have disabled the receiver.
  if (rx_on_) rx_evaluate();
}

void Radio::rx_barrier() {
  rx_timer_ = sim::kInvalidTimer;
  assert(rx_barrier_index_ >= rx_consumed_);
  assert(rx_pending() > rx_barrier_index_ - rx_consumed_);
  {
    // Everything before the probed index is quiet by construction; the
    // sample at this instant carries the side effect and goes through
    // the full per-sample path at exactly its own time.
    rx_consume(rx_barrier_index_ - rx_consumed_);
    const AirPacket* run = nullptr;
    std::size_t at = 0;
    if (rx_mode_ == RxMode::kRun) {
      const NoisyChannel::RxMedium m = channel_.rx_medium(rx_freq_);
      assert(m.run != nullptr);
      const std::int64_t idx = run_index_at(rx_consumed_, m);
      assert(idx >= 0 && static_cast<std::size_t>(idx) < m.run->size());
      run = m.run;
      at = static_cast<std::size_t>(idx);
    }
    ++bits_sampled_;
    ++rx_consumed_;
    burst_sink_->on_run_sample(run, at);
  }
  if (rx_on_) rx_evaluate();
}

std::uint64_t Radio::bits_sampled() const {
  if (rx_mode_ == RxMode::kSkip || rx_mode_ == RxMode::kRun) {
    return bits_sampled_ + rx_pending();
  }
  return bits_sampled_;
}

// ---------------------------------------------------------------------------
// Activity accounting
// ---------------------------------------------------------------------------

void Radio::account_tx(bool on) {
  enable_tx_.set(on ? '1' : '0');
  if (on) {
    tx_since_ = env().now();
  } else {
    tx_accum_ += env().now() - tx_since_;
  }
}

void Radio::account_rx(bool on) {
  enable_rx_.set(on ? '1' : '0');
  if (on) {
    rx_since_ = env().now();
  } else {
    rx_accum_ += env().now() - rx_since_;
  }
}

sim::SimTime Radio::tx_on_time() const {
  sim::SimTime t = tx_accum_;
  if (tx_busy_) t += env().now() - tx_since_;
  return t;
}

sim::SimTime Radio::rx_on_time() const {
  sim::SimTime t = rx_accum_;
  if (rx_on_) t += env().now() - rx_since_;
  return t;
}

void Radio::reset_activity() {
  tx_accum_ = sim::SimTime::zero();
  rx_accum_ = sim::SimTime::zero();
  tx_since_ = env().now();
  rx_since_ = env().now();
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

template <class Self, class Ar>
void Radio::io(Self& s, Ar& a) {
  using sim::as;
  // The enable lines are saved as tx_busy_ / rx_on_, which they mirror;
  // a restored line must match the state restored before it.
  const auto line = [](auto& state) {
    return sim::prop(
        state, [](bool on) { return on; },
        [](bool on, bool saved) {
          if (saved != on) {
            throw sim::SnapshotError("Radio: enable line disagrees with state");
          }
        });
  };
  a.section(sim::snapshot_tag("RADI"), [&] {
    a.io(s.tx_busy_, s.tx_burst_, as<std::uint32_t>(s.tx_freq_),
         sim::prop(s, &Radio::tx_air_bits,
                   [](Radio& r, sim::BitVector bits) {
                     r.tx_own_.mutable_bits() = std::move(bits);
                     r.tx_packet_ = &r.tx_own_;
                   }),
         s.tx_pos_, s.tx_start_, s.rx_on_, as<std::uint32_t>(s.rx_freq_),
         as<std::uint8_t>(s.rx_mode_), s.rx_anchor_, s.rx_consumed_,
         s.rx_barrier_index_, line(s.tx_busy_), line(s.rx_on_),
         s.tx_accum_, s.rx_accum_, s.tx_since_, s.rx_since_, s.bits_sent_,
         s.bits_sampled_);
  });
}

void Radio::save_state(sim::SnapshotWriter& w) const { io(*this, w); }

void Radio::restore_state(sim::SnapshotReader& r) {
  io(*this, r);
  enable_tx_.restore(tx_busy_ ? '1' : '0');
  enable_rx_.restore(rx_on_ ? '1' : '0');
  tx_timer_ = sim::kInvalidTimer;  // re-set by rearm_timer
  rx_timer_ = sim::kInvalidTimer;
  // An in-flight burst run's packet lives in this radio; the channel
  // restored the run's geometry without it.
  if (tx_burst_) channel_.rebind_run_bits(port_, tx_packet_);
}

void Radio::rearm_timer(std::uint16_t kind, std::uint64_t /*payload*/,
                        sim::SimTime when) {
  const sim::SimTime delay = when - env().now();
  switch (kind) {
    case kTxNextBit:
      tx_timer_ = env().schedule_tagged(delay, kTxNextBit, 0,
                                        [this] { tx_next_bit(); }, this);
      break;
    case kTxFinishBurst:
      tx_timer_ = env().schedule_tagged(delay, kTxFinishBurst, 0,
                                        [this] { tx_finish_burst(); }, this);
      break;
    case kRxSample:
      rx_timer_ = env().schedule_tagged(delay, kRxSample, 0,
                                        [this] { rx_sample(); }, this);
      break;
    case kRxBarrier:
      rx_timer_ = env().schedule_tagged(delay, kRxBarrier, 0,
                                        [this] { rx_barrier(); }, this);
      break;
    default:
      throw sim::SnapshotError(name() + ": unknown timer kind");
  }
}

}  // namespace btsc::phy
