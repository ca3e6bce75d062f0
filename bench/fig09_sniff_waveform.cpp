// Fig. 9 — Waveforms with slaves 2 and 3 placed in sniff mode.
//
// Reproduces the paper's scenario on a 4-device piconet: after creation,
// the Link Manager negotiates sniff mode for slaves 2 and 3 (short sniff
// interval so the gating is visible). Writes fig09.vcd and prints an
// ASCII RX strip with one column per slot of the master's clock, '='
// when the slave's receiver was on at any point in the slot's first
// 40 us (longer than the 32.5 us carrier-sense window a connected slave
// opens at a slot start). The strip starts at a master-to-slave slot:
// slave 1 listens at every one of them ('=' in every other column),
// while the sniffing slaves' enable_rx_RF pulses only at their sniff
// anchors.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "core/system.hpp"

using namespace btsc;
using namespace btsc::sim::literals;

int main(int argc, char** argv) {
  const auto args = core::BenchArgs::parse(argc, argv);
  if (args.bad_usage(std::cerr, "fig09_sniff_waveform",
                     "usage: fig09_sniff_waveform [--csv]\n")) {
    return 2;
  }
  core::TextReporter text(std::cout);
  core::CsvReporter csv(std::cout);
  core::Reporter& report = args.csv ? static_cast<core::Reporter&>(csv) : text;
  report.begin(
      "Fig. 9: slave2/slave3 in sniff mode (Tsniff = 16 slots, attempt 1); "
      "strip: one column per slot, '=' RX on in the slot's first 40 us, "
      "'.' off");

  core::SystemConfig sc;
  sc.num_slaves = 3;
  sc.seed = 99;
  sc.lc.inquiry_timeout_slots = 65000;
  sc.lc.page_timeout_slots = 16384;
  sc.vcd_path = "fig09.vcd";
  core::BluetoothSystem sys(sc);
  if (!sys.create_piconet()) {
    report.note("piconet creation failed (unexpected)");
    report.end();
    return 1;
  }
  sys.run(100_ms);

  // Negotiate sniff over LMP for slaves 2 and 3.
  sys.master_lm().request_sniff(sys.lt_addr_of(1), 16, 0, 1);
  sys.master_lm().request_sniff(sys.lt_addr_of(2), 16, 8, 1);
  sys.run(200_ms);

  // From the next master-to-slave slot start (a master clock value that
  // is a multiple of 4), read each slave's RX on-time at the start of
  // each slot and 40 us later: it grew iff RX was on inside that window.
  constexpr std::uint64_t kSlots = 96;
  constexpr sim::SimTime kWindow = sim::SimTime::us(40);
  const baseband::NativeClock& clk = sys.master().clock();
  const sim::SimTime first_slot =
      clk.last_tick_time() + baseband::kTickPeriod * (4 - clk.clkn() % 4);
  std::vector<std::string> strips(3);
  std::vector<sim::SimTime> on_at_start(3);
  for (std::uint64_t slot = 0; slot < kSlots; ++slot) {
    const sim::SimTime start =
        first_slot + baseband::kSlotDuration * slot - sys.env().now();
    sys.env().schedule(start, [&sys, &on_at_start] {
      for (int i = 0; i < 3; ++i) {
        on_at_start[static_cast<std::size_t>(i)] =
            sys.slave(i).radio().rx_on_time();
      }
    });
    sys.env().schedule(start + kWindow, [&sys, &strips, &on_at_start] {
      for (int i = 0; i < 3; ++i) {
        const auto k = static_cast<std::size_t>(i);
        strips[k].push_back(
            sys.slave(i).radio().rx_on_time() > on_at_start[k] ? '=' : '.');
      }
    });
  }
  sys.run(baseband::kSlotDuration * 100);
  for (int i = 0; i < 3; ++i) {
    std::printf("slave%d (%s) |%s|\n", i + 1,
                to_string(sys.slave(i).lc().slave_mode()),
                strips[static_cast<std::size_t>(i)].c_str());
  }

  // Quantify: RX duty over one second in each mode.
  for (int i = 0; i < 3; ++i) sys.slave(i).radio().reset_activity();
  sys.run(1_sec);
  for (int i = 0; i < 3; ++i) {
    std::printf("# slave%d RX duty over 1 s: %.2f%%\n", i + 1,
                100.0 * sys.slave(i).radio().rx_on_time().as_sec());
  }
  sys.finish_trace();
  report.end();
  std::printf("# waveform written to fig09.vcd\n");
  return 0;
}
