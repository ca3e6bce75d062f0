#include "core/coexistence.hpp"

#include <optional>
#include <utility>

#include "baseband/bt_clock.hpp"
#include "sim/snapshot.hpp"

namespace btsc::core {

using namespace btsc::sim::literals;
using baseband::BdAddr;
using baseband::Device;
using baseband::DeviceConfig;
using baseband::kClockMask;
using sim::SimTime;

namespace {

constexpr const char* kNames[4] = {"m0", "s0", "m1", "s1"};

// Well-separated addresses -> uncorrelated hop sequences.
const BdAddr kAddrs[4] = {
    BdAddr(0x3A11C5, 0x51, 0xA000), BdAddr(0x7E24D9, 0x62, 0xA001),
    BdAddr(0xB3590E, 0x73, 0xB000), BdAddr(0xC87A63, 0x84, 0xB001)};

DeviceConfig device_config(int i, sim::Environment& env) {
  DeviceConfig dc;
  dc.addr = kAddrs[i];
  dc.lc.inquiry_timeout_slots = 32768;
  dc.lc.page_timeout_slots = 16384;
  dc.clkn_init =
      i == 0 ? 0
             : static_cast<std::uint32_t>(env.rng().uniform(0, kClockMask));
  dc.clkn_phase = SimTime::us(i == 0 ? 1000 : env.rng().uniform(1, 1249));
  return dc;
}

}  // namespace

TwoPiconets::TwoPiconets(std::uint64_t seed)
    : env_(seed), channel_(env_, "channel") {
  // Clock draws come from the root stream in device order.
  for (int i = 0; i < 4; ++i) {
    devices_.push_back(std::make_unique<Device>(
        env_, kNames[i], device_config(i, env_), channel_));
  }
  for (auto& d : devices_) {
    lms_.push_back(std::make_unique<lm::LinkManager>(*d));
  }
}

TwoPiconets::~TwoPiconets() = default;

baseband::Device& TwoPiconets::master(int piconet) {
  return *devices_.at(static_cast<std::size_t>(2 * piconet));
}
baseband::Device& TwoPiconets::slave(int piconet) {
  return *devices_.at(static_cast<std::size_t>(2 * piconet + 1));
}
lm::LinkManager& TwoPiconets::master_lm(int piconet) {
  return *lms_.at(static_cast<std::size_t>(2 * piconet));
}
lm::LinkManager& TwoPiconets::slave_lm(int piconet) {
  return *lms_.at(static_cast<std::size_t>(2 * piconet + 1));
}

template <class Self, class Ar>
void TwoPiconets::io(Self& s, Ar& a) {
  // Module order as in BluetoothSystem::io.
  a.io(s.channel_);
  for (auto& dev : s.devices_) {
    a.io(dev->clock(), dev->radio(), dev->receiver(), dev->lc());
  }
  for (auto& lm : s.lms_) a.io(*lm);
  a.io(s.env_);
}

std::vector<std::uint8_t> TwoPiconets::save_snapshot() {
  sim::SnapshotWriter w;
  io(std::as_const(*this), w);
  return w.take();
}

void TwoPiconets::restore_snapshot(const std::vector<std::uint8_t>& bytes) {
  sim::SnapshotReader r(bytes);
  io(*this, r);
  if (!r.at_end()) {
    throw sim::SnapshotError("coexistence snapshot: trailing bytes");
  }
}

bool TwoPiconets::create(int piconet, int max_attempts) {
  bool created = false;
  for (int attempt = 0; attempt < max_attempts && !created; ++attempt) {
    std::optional<bool> inquiry_done;
    lm::LinkManager::Events ev;
    ev.inquiry_complete = [&](bool ok) { inquiry_done = ok; };
    master_lm(piconet).set_events(std::move(ev));
    slave(piconet).lc().enable_inquiry_scan();
    master(piconet).lc().enable_inquiry();
    const SimTime inquiry_deadline = env_.now() + 25_sec;
    while (!inquiry_done && env_.now() < inquiry_deadline) run(5_ms);
    if (!inquiry_done.value_or(false)) continue;

    const auto& found = master(piconet).lc().discovered();
    if (found.empty()) continue;
    std::optional<bool> page_done;
    lm::LinkManager::Events pev;
    pev.page_complete = [&](bool ok) { page_done = ok; };
    master_lm(piconet).set_events(std::move(pev));
    slave(piconet).lc().enable_page_scan();
    master(piconet).lc().enable_page(found[0].addr, found[0].clkn_offset);
    const SimTime page_deadline = env_.now() + 12_sec;
    while (!page_done && env_.now() < page_deadline) run(5_ms);
    created = page_done.value_or(false);
  }
  // The handlers point into the loop's frame; a later inquiry or page
  // must not reach them.
  master_lm(piconet).set_events({});
  return created;
}

}  // namespace btsc::core
