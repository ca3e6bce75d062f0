// Device: one complete Bluetooth node (lower layers).
//
// Aggregates the native clock, the radio front-end on the shared channel,
// the packet receiver and the link controller, wiring them exactly as the
// paper's baseband architecture figure does. The Link Manager (lm/) and
// the scenario layer (core/) sit on top of this class.
#pragma once

#include <cstdint>
#include <string>

#include "baseband/address.hpp"
#include "baseband/bt_clock.hpp"
#include "baseband/link_controller.hpp"
#include "baseband/receiver.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/module.hpp"

namespace btsc::baseband {

struct DeviceConfig {
  BdAddr addr;
  /// Initial CLKN value (devices power up with arbitrary clocks).
  std::uint32_t clkn_init = 0;
  /// Phase of the first CLKN tick. Must be a whole number of
  /// microseconds so all devices share the 1 Mb/s bit grid (see
  /// DESIGN.md timing notes); sub-microsecond phase is not modelled.
  sim::SimTime clkn_phase = kTickPeriod;
  LcConfig lc;
};

class Device final : public sim::Module {
 public:
  Device(sim::Environment& env, std::string name, const DeviceConfig& config,
         phy::NoisyChannel& channel);

  const BdAddr& address() const { return config_.addr; }
  NativeClock& clock() { return clock_; }
  phy::Radio& radio() { return radio_; }
  Receiver& receiver() { return receiver_; }
  LinkController& lc() { return lc_; }

 private:
  DeviceConfig config_;
  NativeClock clock_;
  phy::Radio radio_;
  Receiver receiver_;
  LinkController lc_;
};

}  // namespace btsc::baseband
