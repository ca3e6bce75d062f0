// Fig. 9 — Waveforms with slaves 2 and 3 placed in sniff mode.
//
// Reproduces the paper's scenario on a 4-device piconet: after creation,
// the Link Manager negotiates sniff mode for slaves 2 and 3 (short sniff
// interval so the gating is visible). Writes fig09.vcd and prints an
// ASCII RX strip sampled every 2 slots: the sniffing slaves' enable_rx_RF
// pulses only at their sniff anchors, while slave 1 keeps listening at
// every slot start.
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
  core::TextReporter text(std::cout);
  core::CsvReporter csv(std::cout);
  core::Reporter& report = args.csv ? static_cast<core::Reporter&>(csv) : text;
  report.begin(
      "Fig. 9: slave2/slave3 in sniff mode (Tsniff = 16 slots, attempt 1); "
      "strip: one column per slot, '=' RX on at slot start, '.' off");

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

  // Sample each slave's RX enable shortly after each even-slot start.
  std::vector<std::string> strips(3);
  for (int slot = 0; slot < 96; slot += 2) {
    sys.env().schedule(sim::SimTime::us(40) +
                           baseband::kSlotDuration * static_cast<std::uint64_t>(slot),
                       [&sys, &strips] {
                         for (int i = 0; i < 3; ++i) {
                           strips[static_cast<std::size_t>(i)].push_back(
                               sys.slave(i).radio().rx_enabled() ? '=' : '.');
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
