// RF-activity and power metrics (the y-axes of the paper's Figs. 10-12).
//
// RF activity is the fraction of wall-clock time the TX or RX chain was
// enabled; the paper uses it directly as the power proxy. The PowerModel
// converts activity into an average power draw using per-chain figures
// typical of a 0.18 um Bluetooth radio (the paper's reference [2]).
#pragma once

#include "phy/radio.hpp"
#include "sim/time.hpp"

namespace btsc::core {

struct RfActivity {
  /// Fraction of wall-clock time the TX chain was enabled.
  double tx_fraction = 0.0;
  /// Fraction of wall-clock time the RX chain was enabled.
  double rx_fraction = 0.0;
  /// Combined RF duty cycle (the y-axis of Figs. 11-12).
  double total() const { return tx_fraction + rx_fraction; }
};

/// Snapshot-based probe: construct (or reset()) at the start of the
/// measurement window, call measure() at the end.
class ActivityProbe {
 public:
  explicit ActivityProbe(phy::Radio& radio) : radio_(radio) { reset(); }

  void reset() {
    radio_.reset_activity();
    start_ = radio_.env().now();
  }

  RfActivity measure() const {
    const auto elapsed = radio_.env().now() - start_;
    RfActivity a;
    if (elapsed == sim::SimTime::zero()) return a;
    const double t = static_cast<double>(elapsed.as_ns());
    a.tx_fraction = static_cast<double>(radio_.tx_on_time().as_ns()) / t;
    a.rx_fraction = static_cast<double>(radio_.rx_on_time().as_ns()) / t;
    return a;
  }

 private:
  phy::Radio& radio_;
  sim::SimTime start_;
};

/// Average power from RF duty cycles. Defaults follow a 0.18 um class-1
/// Bluetooth radio: ~30 mW in TX, ~33 mW in RX, tens of microwatts in
/// standby with the RF chains gated off.
struct PowerModel {
  /// Power draw with the transmit chain enabled, in milliwatts.
  double tx_mw = 30.0;
  /// Power draw with the receive chain enabled, in milliwatts.
  double rx_mw = 33.0;
  /// Standby draw with both RF chains gated off, in milliwatts.
  double idle_mw = 0.05;

  double average_mw(const RfActivity& a) const {
    const double idle_fraction =
        1.0 - a.tx_fraction - a.rx_fraction;
    return tx_mw * a.tx_fraction + rx_mw * a.rx_fraction +
           idle_mw * (idle_fraction < 0.0 ? 0.0 : idle_fraction);
  }
};

}  // namespace btsc::core
