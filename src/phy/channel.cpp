#include "phy/channel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string_view>

#include "sim/environment.hpp"
#include "sim/rng.hpp"

namespace btsc::phy {

namespace {

/// Process-wide default of ChannelConfig::burst_transport (the escape
/// hatch flipped by `--no-burst` style switches before systems are
/// built; sweeps read it once per channel construction).
std::atomic<bool>& burst_default() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

}  // namespace

void NoisyChannel::set_burst_transport_default(bool enabled) {
  burst_default().store(enabled, std::memory_order_relaxed);
}

bool NoisyChannel::burst_transport_default() {
  return burst_default().load(std::memory_order_relaxed);
}

NoisyChannel::NoisyChannel(sim::Environment& env, std::string name,
                           ChannelConfig config)
    : Module(env, std::move(name)), config_(config), rate_(config.ber) {
  if (config_.ber < 0.0 || config_.ber > 1.0) {
    throw std::invalid_argument("NoisyChannel: BER outside [0,1]");
  }
  config_.burst_transport =
      config_.burst_transport && burst_transport_default();
  if (env.tracer() != nullptr) {
    bus_trace_.emplace(env, child_name("bus"), to_char(Logic4::kZ));
  }
  env.set_seeded_streams(this);
}

NoisyChannel::~NoisyChannel() { env().set_seeded_streams(nullptr); }

void NoisyChannel::set_ber(double ber) {
  fallback_all_runs();
  config_.ber = ber;
  rate_ = FlipRate(ber);
  for (Port& p : ports_) p.noise.redraw(rate_);
}

void NoisyChannel::reseed_streams(std::uint64_t seed) {
  // A run's flips came from the old stream; the rest of its packet
  // must draw from the new one, as per-bit drives would.
  fallback_all_runs();
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    ports_[i].noise.reseed(
        sim::Rng::derive_stream_seed(seed, kNoiseStreamRole, i), rate_);
  }
}

void NoisyChannel::set_burst_transport_enabled(bool enabled) {
  if (!enabled) fallback_all_runs();
  config_.burst_transport = enabled;
}

PortId NoisyChannel::attach(const std::string& device_name) {
  if (live_runs_ > 0) {
    throw std::logic_error("NoisyChannel::attach: burst run in flight");
  }
  const std::size_t port = ports_.size();
  Port& p = ports_.emplace_back();
  p.name = device_name;
  p.noise.reseed(
      sim::Rng::derive_stream_seed(env().seed(), kNoiseStreamRole, port),
      rate_);
  return static_cast<PortId>(port);
}

void NoisyChannel::set_listener(PortId port, Listener* listener) {
  ports_.at(static_cast<std::size_t>(port)).listener = listener;
}

void NoisyChannel::set_listening(PortId port, int freq) {
  ports_.at(static_cast<std::size_t>(port)).rx_freq = freq;
}

void NoisyChannel::drive(PortId port, int freq, Logic4 value) {
  if (port < 0 || port >= num_ports()) {
    throw std::out_of_range("NoisyChannel::drive: bad port");
  }
  if (value != Logic4::kZ && (freq < 0 || freq >= kNumRfChannels)) {
    throw std::out_of_range("NoisyChannel::drive: bad frequency");
  }
  assert(!run_of(port).active &&
         "per-bit drive from the port that owns a burst run");
  // A second transmitter on the frequency of a run in flight: the
  // single-transmitter premise broke, so the run degrades to exact
  // per-bit scheduling before this drive lands.
  if (live_runs_ > 0 && is_defined(value)) {
    if (const PortId owner = freqs_[static_cast<std::size_t>(freq)].run;
        owner >= 0) {
      fallback_run(owner);
    }
  }

  Logic4 v = value;
  Port& p = ports_[static_cast<std::size_t>(port)];
  if (is_defined(v)) {
    ++bits_driven_;
    if (config_.ber > 0.0 && p.noise.flip(rate_)) {
      v = invert(v);
      ++bits_flipped_;
    }
  }
  const bool was_defined = is_defined(p.value);
  const bool now_defined = is_defined(v);
  if (was_defined) count_defined(p.freq, -1);
  if (now_defined) count_defined(freq, +1);
  p.freq = freq;
  p.value = v;
  if (was_defined != now_defined) {
    // The medium at this frequency appeared or vanished: let lazy
    // receivers materialise their pending samples against the old state
    // and re-pick their sampling mode.
    notify_sync();
    notify_reevaluate();
  }
  refresh_trace();
}

void NoisyChannel::count_defined(int freq, int delta) {
  defined_ports_ += delta;
  freqs_[static_cast<std::size_t>(freq)].defined += delta;
}

Logic4 NoisyChannel::sense(int freq) const {
  Logic4 acc = Logic4::kZ;
  if (const Run* run = run_at(freq)) acc = run_value_now(*run);
  for (const Port& p : ports_) {
    if (p.value == Logic4::kZ || p.freq != freq) continue;
    acc = resolve(acc, p.value);
  }
  if (acc == Logic4::kX) ++collision_samples_;
  return acc;
}

void NoisyChannel::requeue_rx_chains_after(PortId port) {
  const std::optional<RxChain> self =
      ports_[static_cast<std::size_t>(port)].listener->rx_chain();
  assert(self.has_value());
  auto before = [](const RxChain& a, PortId pa, const RxChain& b,
                   PortId pb) {
    return a.anchor < b.anchor || (a.anchor == b.anchor && pa < pb);
  };
  // Selection by ascending key without a scratch list: a handful of
  // ports, and this runs only when a chain restarts.
  RxChain last = *self;
  PortId last_port = port;
  for (;;) {
    PortId best_port = -1;
    RxChain best{};
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      const auto p = static_cast<PortId>(i);
      Listener* l = ports_[i].listener;
      if (p == port || l == nullptr) continue;
      const std::optional<RxChain> c = l->rx_chain();
      if (!c || c->next != self->next) continue;
      if (!before(last, last_port, *c, p)) continue;
      if (best_port < 0 || before(*c, p, best, best_port)) {
        best = *c;
        best_port = p;
      }
    }
    if (best_port < 0) return;
    ports_[static_cast<std::size_t>(best_port)].listener->rx_requeue_chain();
    last = best;
    last_port = best_port;
  }
}

bool NoisyChannel::busy() const {
  return live_runs_ > 0 || defined_ports_ > 0;
}

NoisyChannel::RxMedium NoisyChannel::rx_medium(int freq) const {
  RxMedium m;
  m.live = live_at(freq);
  if (const Run* run = run_at(freq)) {
    m.run = run->shown;
    m.run_start = run->start;
    m.run_period = run->period;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Burst runs
// ---------------------------------------------------------------------------

bool NoisyChannel::begin_burst(PortId port, int freq,
                               const AirPacket& packet,
                               sim::SimTime period) {
  if (port < 0 || port >= num_ports()) {
    throw std::out_of_range("NoisyChannel::begin_burst: bad port");
  }
  if (freq < 0 || freq >= kNumRfChannels) {
    throw std::out_of_range("NoisyChannel::begin_burst: bad frequency");
  }
  // Equivalence gate: a run is accepted only when the batched loop is
  // provably identical to per-bit drives -- no tracer (a traced system
  // runs per-bit, so every bus change is committed at its own instant),
  // and nobody else on the air at this frequency. BER > 0 is not
  // refused: the run draws its flips from the port's own stream
  // (show_run), the gaps per-bit drives would consume.
  const std::size_t len = packet.size();
  if (!config_.burst_transport || len == 0 || env().tracer() != nullptr) {
    return false;
  }
  Freq& f = freqs_[static_cast<std::size_t>(freq)];
  if (f.run >= 0 || f.defined > 0) return false;
  assert(!run_of(port).active);
  notify_sync();
  Port& p = ports_[static_cast<std::size_t>(port)];
  Run& run = p.run;
  run.active = true;
  run.freq = freq;
  run.len = len;
  run.start = env().now();
  run.period = period;
  f.run = port;
  ++live_runs_;
  if (config_.ber > 0.0) {
    run.noisy = true;
    run.base = p.noise;
    show_run(p, p.noise, packet);
  } else {
    run.shown = &packet;
  }
  p.freq = freq;
  notify_reevaluate();
  return true;
}

void NoisyChannel::show_run(Port& p, NoiseStream& stream,
                            const AirPacket& packet) {
  const std::size_t len = packet.size();
  if (stream.quiet_for(len)) {
    // Clean: no flip inside, so the medium shows the packet itself and
    // its bits stay uncomposed.
    p.run.flips = stream.advance(len, nullptr, rate_);
    p.run.shown = &packet;
    return;
  }
  // Noisy: the medium shows the packet with its flips, still uncomposed.
  p.noisy.show(packet);
  p.run.flips = stream.advance(len, &p.noisy.positions(), rate_);
  p.run.shown = &p.noisy;
}

std::size_t NoisyChannel::run_bits_elapsed(const Run& run) const {
  assert(run.active);
  const std::uint64_t d = env().now().as_ns() - run.start.as_ns();
  const std::uint64_t p = run.period.as_ns();
  // Bits with a drive instant strictly before now have fired in any
  // event order; a bit exactly at now has fired only when the kernel is
  // not mid-dispatch (its virtual drive event would be ordered after
  // the currently running event). Bit 0 is driven synchronously by
  // begin_burst, so at least one bit is always on the air.
  std::uint64_t n = env().dispatching() ? (d + p - 1) / p : d / p + 1;
  if (n == 0) n = 1;
  return n < run.len ? static_cast<std::size_t>(n) : run.len;
}

Logic4 NoisyChannel::run_value_now(const Run& run) const {
  return from_bit(run.shown->word(run_bits_elapsed(run) - 1, 1) != 0);
}

std::size_t NoisyChannel::settle_run(PortId port, std::size_t driven,
                                     Logic4 last) {
  assert(driven >= 1);
  Port& p = ports_[static_cast<std::size_t>(port)];
  Run& run = p.run;
  if (run.noisy) {
    if (driven < run.len) {
      // Per-bit drives would have consumed only `driven` bits of the
      // port's stream: rewind to the run's base and replay them, so the
      // per-bit remainder draws exactly the reference's flips.
      p.noise = run.base;
      bits_flipped_ += p.noise.advance(driven, nullptr, rate_);
    } else {
      bits_flipped_ += run.flips;
    }
  }
  bits_driven_ += driven;
  bits_burst_ += driven;
  assert(p.value == Logic4::kZ);
  p.value = last;
  p.freq = run.freq;
  if (is_defined(last)) count_defined(run.freq, +1);
  freqs_[static_cast<std::size_t>(run.freq)].run = -1;
  --live_runs_;
  run = Run{};
  return driven;
}

std::size_t NoisyChannel::finish_burst(PortId port) {
  assert(burst_active(port));
  notify_sync();
  const std::size_t driven = settle_run(port, run_of(port).len, Logic4::kZ);
  notify_reevaluate();
  refresh_trace();
  return driven;
}

std::size_t NoisyChannel::abort_burst(PortId port) {
  assert(burst_active(port));
  notify_sync();
  const std::size_t driven =
      settle_run(port, run_bits_elapsed(run_of(port)), Logic4::kZ);
  notify_reevaluate();
  refresh_trace();
  return driven;
}

void NoisyChannel::fallback_all_runs() {
  for (std::size_t i = 0; live_runs_ > 0 && i < ports_.size(); ++i) {
    if (ports_[i].run.active) fallback_run(static_cast<PortId>(i));
  }
}

void NoisyChannel::fallback_run(PortId port) {
  const Run& run = run_of(port);
  assert(run.active);
  ++burst_fallbacks_;
  Listener* owner = ports_[static_cast<std::size_t>(port)].listener;
  notify_sync();
  const std::size_t driven = run_bits_elapsed(run);
  const Logic4 last = from_bit(run.shown->word(driven - 1, 1) != 0);
  settle_run(port, driven, last);
  // The owner reschedules the remaining bits as exact per-bit drives
  // before receivers re-pick their modes (they will see a live medium).
  assert(owner != nullptr);
  owner->tx_burst_fallback(driven);
  notify_reevaluate();
  refresh_trace();
}

void NoisyChannel::notify_sync() {
  assert(!notifying_ && "reentrant medium notification");
  notifying_ = true;
  for (Port& p : ports_) {
    if (p.listener != nullptr && p.rx_freq >= 0) p.listener->rx_sync();
  }
  notifying_ = false;
}

void NoisyChannel::notify_reevaluate() {
  for (Port& p : ports_) {
    if (p.listener != nullptr && p.rx_freq >= 0) p.listener->rx_reevaluate();
  }
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

template <class Self, class Ar>
void NoisyChannel::io(Self& s, Ar& a) {
  using sim::as;
  a.section(sim::snapshot_tag("CHAN"), [&] {
    a.io(s.config_.ber, s.config_.burst_transport);
    a.each(s.ports_, [&](auto& p) {
      a.io(as<std::uint32_t>(p.freq), as<std::uint8_t>(p.value),
           as<std::uint32_t>(p.rx_freq), p.noise);
    });
    s.io_runs(a);
    a.io(s.bits_driven_, s.bits_flipped_, s.collision_samples_,
         s.bits_burst_, s.burst_fallbacks_);
    // The bus trace line exists only in a traced system, so its
    // presence must match the scenario restored into.
    bool traced = s.bus_trace_.has_value();
    a.io(traced);
    if (traced != s.bus_trace_.has_value()) {
      throw sim::SnapshotError("NoisyChannel: bus-trace presence mismatch");
    }
    if (traced) {
      // Stored as the Logic4 code, whose to_char() is "01zx"[code].
      a.io(sim::prop(
          *s.bus_trace_,
          [](const sim::TraceLine& line) {
            return static_cast<std::uint8_t>(
                std::string_view("01zx").find(line.value()));
          },
          [](sim::TraceLine& line, std::uint8_t v) {
            line.restore(to_char(static_cast<Logic4>(v)));
          }));
    }
  });
}

void NoisyChannel::save_state(sim::SnapshotWriter& w) const { io(*this, w); }

void NoisyChannel::restore_state(sim::SnapshotReader& r) {
  for (Port& p : ports_) p.run = Run{};
  std::fill(freqs_.begin(), freqs_.end(), Freq{});
  io(*this, r);
  rate_ = FlipRate(config_.ber);
  defined_ports_ = 0;
  for (const Port& p : ports_) {
    if (!is_defined(p.value)) continue;
    if (p.freq < 0 || p.freq >= kNumRfChannels) {
      throw sim::SnapshotError("NoisyChannel: drive frequency out of range");
    }
    count_defined(p.freq, +1);
  }
}

void NoisyChannel::io_runs(sim::SnapshotWriter& w) const {
  // The active runs, in port order.
  w.u32(static_cast<std::uint32_t>(live_runs_));
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    const Run& run = ports_[i].run;
    if (!run.active) continue;
    w.u32(static_cast<std::uint32_t>(i));
    w.u32(static_cast<std::uint32_t>(run.freq));
    w.time(run.start);
    w.time(run.period);
    // A noisy run stores only its base stream: its flips are a pure
    // function of (base, BER, length) and are redrawn on rebind.
    w.b(run.noisy);
    if (run.noisy) run.base.save_state(w);
  }
}

void NoisyChannel::io_runs(sim::SnapshotReader& r) {
  live_runs_ = 0;
  for (std::uint32_t n = r.u32(); n > 0; --n) {
    const auto port = static_cast<PortId>(r.u32());
    const auto freq = static_cast<int>(r.u32());
    if (port < 0 || port >= num_ports() || run_of(port).active) {
      throw sim::SnapshotError("NoisyChannel: run port out of range or taken");
    }
    if (freq < 0 || freq >= kNumRfChannels ||
        freqs_[static_cast<std::size_t>(freq)].run >= 0) {
      throw sim::SnapshotError(
          "NoisyChannel: run frequency out of range or taken");
    }
    Run& run = run_of(port);
    run.active = true;
    run.freq = freq;
    run.start = r.time();
    run.period = r.time();
    freqs_[static_cast<std::size_t>(freq)].run = port;
    ++live_runs_;
    run.noisy = r.b();
    if (run.noisy) run.base.restore_state(r);
    // run.shown/len stay unset until the owning radio rebinds the run.
  }
}

void NoisyChannel::rebind_run_bits(PortId port, const AirPacket* packet) {
  Port& p = ports_[static_cast<std::size_t>(port)];
  Run& run = p.run;
  assert(run.active && run.shown == nullptr);
  run.len = packet->size();
  if (run.noisy) {
    // Redraw the flips from a scratch copy of the base: the port's own
    // stream was restored already, past the run's flips.
    NoiseStream replay = run.base;
    show_run(p, replay, *packet);
  } else {
    run.shown = packet;
  }
}

void NoisyChannel::refresh_trace() {
  if (!bus_trace_) return;
  Logic4 acc = Logic4::kZ;
  for (const Port& p : ports_) acc = resolve(acc, p.value);
  bus_trace_->set(to_char(acc));
}

}  // namespace btsc::phy
