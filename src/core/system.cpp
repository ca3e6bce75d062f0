#include "core/system.hpp"

#include <stdexcept>
#include <utility>

#include "sim/snapshot.hpp"

namespace btsc::core {

using namespace btsc::sim::literals;
using baseband::BdAddr;
using baseband::Device;
using baseband::DeviceConfig;
using baseband::kClockMask;
using baseband::kSlotDuration;
using sim::SimTime;

namespace {

BdAddr device_address(int index) {
  // Distinct LAP/UAP per device; NAP identifies this simulation.
  return BdAddr(0x200000u + static_cast<std::uint32_t>(index) * 0x01057Bu,
                static_cast<std::uint8_t>(0x40 + index * 7), 0xB75C);
}

}  // namespace

BluetoothSystem::BluetoothSystem(const SystemConfig& config)
    : env_(config.seed),
      tracer_(config.vcd_path
                  ? std::make_unique<sim::VcdTracer>(env_, *config.vcd_path)
                  : nullptr),
      channel_((env_.set_tracer(tracer_.get()), env_), "channel",
               phy::ChannelConfig{.ber = config.ber}) {
  if (config.num_slaves < 1 || config.num_slaves > 7) {
    throw std::invalid_argument("BluetoothSystem: 1..7 slaves");
  }
  for (int i = 0; i <= config.num_slaves; ++i) {
    DeviceConfig dc;
    dc.addr = device_address(i);
    dc.lc = config.lc;
    if (i == 0) {
      dc.clkn_init = 0;
      dc.clkn_phase = SimTime::us(1000);
      dc.lc.inquiry_target_responses =
          static_cast<std::size_t>(config.num_slaves);
    } else {
      dc.clkn_init =
          static_cast<std::uint32_t>(env_.rng().uniform(0, kClockMask));
      dc.clkn_phase = SimTime::us(env_.rng().uniform(1, 1249));
    }
    devices_.push_back(std::make_unique<Device>(
        env_, i == 0 ? "master" : "slave" + std::to_string(i), dc,
        channel_));
  }
  for (auto& dev : devices_) {
    lms_.push_back(std::make_unique<lm::LinkManager>(*dev));
  }
  connected_.assign(static_cast<std::size_t>(config.num_slaves), 0);
}

BluetoothSystem::~BluetoothSystem() { finish_trace(); }

void BluetoothSystem::finish_trace() {
  if (tracer_) {
    tracer_->close();
    env_.set_tracer(nullptr);
    tracer_.reset();
  }
}

PhaseResult BluetoothSystem::run_inquiry() {
  std::optional<bool> done;
  SimTime done_at = SimTime::zero();
  lm::LinkManager::Events ev;
  ev.inquiry_complete = [&](bool ok) {
    done = ok;
    done_at = env_.now();
  };
  master_lm().set_events(std::move(ev));

  for (int i = 0; i < num_slaves(); ++i) {
    if (!connected_[static_cast<std::size_t>(i)]) {
      slave(i).lc().enable_inquiry_scan();
    }
  }
  const SimTime start = env_.now();
  master().lc().enable_inquiry();
  const SimTime guard =
      kSlotDuration *
      (static_cast<std::uint64_t>(master().lc().config().inquiry_timeout_slots) + 64);
  const SimTime deadline = env_.now() + guard;
  while (!done && env_.now() < deadline) env_.run(1_ms);
  // The handler points into this frame; a later inquiry must not reach it.
  master_lm().set_events({});

  PhaseResult r;
  r.success = done.value_or(false);
  r.slots = (done.has_value() ? done_at - start : env_.now() - start) /
            kSlotDuration;
  return r;
}

PhaseResult BluetoothSystem::run_page(int slave_index) {
  PhaseResult r;
  const BdAddr target = slave(slave_index).address();
  const baseband::DiscoveredDevice* found = nullptr;
  for (const auto& d : master().lc().discovered()) {
    if (d.addr == target) found = &d;
  }
  if (found == nullptr) return r;  // not discovered: cannot page

  std::optional<bool> done;
  SimTime done_at = SimTime::zero();
  lm::LinkManager::Events ev;
  ev.page_complete = [&](bool ok) {
    done = ok;
    done_at = env_.now();
  };
  master_lm().set_events(std::move(ev));

  slave(slave_index).lc().enable_page_scan();
  const SimTime start = env_.now();
  master().lc().enable_page(found->addr, found->clkn_offset);
  const SimTime guard =
      kSlotDuration *
      (static_cast<std::uint64_t>(master().lc().config().page_timeout_slots) + 64);
  const SimTime deadline = env_.now() + guard;
  while (!done && env_.now() < deadline) env_.run(1_ms);
  master_lm().set_events({});  // as in run_inquiry

  r.success = done.value_or(false);
  r.slots = (done.has_value() ? done_at - start : env_.now() - start) /
            kSlotDuration;
  if (r.success) connected_[static_cast<std::size_t>(slave_index)] = 1;
  return r;
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kSysTag = sim::snapshot_tag("SYS ");

}  // namespace

template <class Self, class Ar>
void BluetoothSystem::io(Self& s, Ar& a) {
  a.section(kSysTag, [&] { a.io(s.connected_); });
  // Channel before radios: Radio::restore_state re-links in-flight burst
  // run bits into the channel ports. Kernel last: timer descriptors
  // reference settled modules, and rearm handlers read restored module
  // state to rebuild callbacks.
  a.io(s.channel_);
  for (auto& dev : s.devices_) {
    a.io(dev->clock(), dev->radio(), dev->receiver(), dev->lc());
  }
  for (auto& lm : s.lms_) a.io(*lm);
  a.io(s.env_);
}

std::vector<std::uint8_t> BluetoothSystem::save_snapshot() {
  sim::SnapshotWriter w;
  io(std::as_const(*this), w);
  return w.take();
}

void BluetoothSystem::restore_snapshot(const std::vector<std::uint8_t>& bytes) {
  sim::SnapshotReader r(bytes);
  io(*this, r);
  if (connected_.size() != static_cast<std::size_t>(num_slaves())) {
    throw sim::SnapshotError("system snapshot: slave count mismatch");
  }
  if (!r.at_end()) {
    throw sim::SnapshotError("system snapshot: trailing bytes");
  }
}

void BluetoothSystem::randomize_slave_clocks() {
  for (std::size_t i = 1; i < devices_.size(); ++i) {
    // Same draw order as construction: clock value first, phase second.
    const auto clkn =
        static_cast<std::uint32_t>(env_.rng().uniform(0, kClockMask));
    const SimTime phase = SimTime::us(env_.rng().uniform(1, 1249));
    devices_[i]->clock().reset_phase(clkn, phase);
  }
}

bool BluetoothSystem::create_piconet() {
  if (!run_inquiry().success) return false;
  for (int i = 0; i < num_slaves(); ++i) {
    if (!run_page(i).success) return false;
  }
  return true;
}

}  // namespace btsc::core
