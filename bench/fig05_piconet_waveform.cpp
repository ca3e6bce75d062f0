// Fig. 5 — Waveforms for the creation of a piconet with a master and
// three slaves.
//
// Reproduces the paper's scenario: all devices try to connect at the same
// time; the master inquires, collects all three FHS responses, then pages
// the slaves one by one. Produces
//   * fig05.vcd             -- the enable_rx_RF / enable_tx_RF waveforms
//                              (open in GTKWave; the paper's Fig. 5),
//   * an ASCII RX-activity strip per device (10 ms per character),
//   * a per-phase summary.
//
// The paper's qualitative observations to check in the output: slaves not
// yet in the piconet keep their receiver always active (solid strip);
// once joined, the receiver opens only at slot starts (sparse strip).
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/system.hpp"

using namespace btsc;
using namespace btsc::sim::literals;

namespace {

/// Samples each device's RX enable every 10 ms into a character strip.
class ActivityStrip {
 public:
  ActivityStrip(core::BluetoothSystem& sys) : sys_(sys) { sample(); }

  void sample() {
    auto mark = [](baseband::Device& d) {
      if (d.radio().tx_busy()) return '#';
      return d.radio().rx_enabled() ? '=' : '.';
    };
    strips_.resize(static_cast<std::size_t>(sys_.num_slaves()) + 1);
    strips_[0].push_back(mark(sys_.master()));
    for (int i = 0; i < sys_.num_slaves(); ++i) {
      strips_[static_cast<std::size_t>(i) + 1].push_back(mark(sys_.slave(i)));
    }
    sys_.env().schedule(sim::SimTime::ms(10), [this] { sample(); });
  }

  void print() const {
    static const char* names[] = {"master", "slave1", "slave2", "slave3"};
    for (std::size_t i = 0; i < strips_.size(); ++i) {
      std::printf("%-7s |%s|\n", names[i], strips_[i].c_str());
    }
  }

 private:
  core::BluetoothSystem& sys_;
  std::vector<std::string> strips_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto args = core::BenchArgs::parse(argc, argv);
  if (args.bad_usage(std::cerr, "fig05_piconet_waveform",
                     "usage: fig05_piconet_waveform [--csv]\n")) {
    return 2;
  }
  core::TextReporter text(std::cout);
  core::CsvReporter csv(std::cout);
  core::Reporter& report = args.csv ? static_cast<core::Reporter&>(csv) : text;
  report.begin(
      "Fig. 5: piconet creation waveforms (master + 3 slaves); '='=RX on, "
      "'#'=TX, '.'=RF off; one column = 10 ms");

  core::SystemConfig sc;
  sc.num_slaves = 3;
  sc.seed = 2026;
  sc.lc.inquiry_timeout_slots = 65000;
  sc.lc.page_timeout_slots = 16384;
  sc.vcd_path = "fig05.vcd";
  core::BluetoothSystem sys(sc);
  ActivityStrip strip(sys);

  const auto inquiry = sys.run_inquiry();
  report.note("inquiry: " + std::string(inquiry.success ? "ok" : "FAILED") +
              " after " + std::to_string(inquiry.slots) + " slots (found " +
              std::to_string(sys.master().lc().discovered().size()) +
              " devices)");
  // All slaves now wait in page scan (receiver always active -- the
  // paper's "not already in the piconet" observation); the master pages
  // them one at a time. To make the always-on stretch visible, linger a
  // while between pages.
  for (int i = 0; i < 3; ++i) sys.slave(i).lc().enable_page_scan();
  sys.run(100_ms);
  for (int i = 0; i < 3 && inquiry.success; ++i) {
    const auto page = sys.run_page(i);
    report.note("page slave" + std::to_string(i + 1) + ": " +
                (page.success ? "ok" : "FAILED") + " after " +
                std::to_string(page.slots) + " slots (LT_ADDR " +
                std::to_string(sys.lt_addr_of(i)) + ")");
    sys.run(100_ms);
  }
  // Connected phase: observe the slot-gated receivers of joined slaves.
  sys.run(500_ms);
  strip.print();

  for (int i = 0; i < 3; ++i) {
    auto& r = sys.slave(i).radio();
    const double dur = sys.env().now().as_sec();
    std::printf(
        "# slave%d lifetime RX duty %.1f%%, TX duty %.2f%% (joined slaves "
        "drop to slot-start listening)\n",
        i + 1, 100.0 * r.rx_on_time().as_sec() / dur,
        100.0 * r.tx_on_time().as_sec() / dur);
  }
  sys.finish_trace();
  report.end();
  std::printf("# waveform written to fig05.vcd\n");
  return 0;
}
