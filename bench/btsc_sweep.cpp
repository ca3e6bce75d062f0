// btsc-sweep — unified CLI over the scenario registry: reproduce any
// Monte-Carlo figure of the paper from one binary, replications spread
// across a thread pool with bitwise-deterministic results at any thread
// count.
//
//   btsc-sweep --list
//   btsc-sweep --fig 8 --threads 8 --out fig08.json
//   btsc-sweep --scenario throughput --quick --csv
//
// Shared knobs (see core::BenchArgs): --seeds/--replications N, --quick,
// --threads N (0 = hardware), --csv, --json, --out FILE (.json/.csv
// suffix selects the format), --base-seed S, --max-points N.
#include <cstdio>
#include <cstring>
#include <string>

#include "runner/scenarios.hpp"

namespace {

void print_usage() { std::fputs(btsc::runner::sweep_usage(), stdout); }

void print_list() {
  std::printf("%-12s %-5s %s\n", "id", "fig", "summary");
  for (const auto& s : btsc::runner::scenarios()) {
    std::printf("%-12s %-5s %s\n", s.id.c_str(),
                s.figure.empty() ? "-" : s.figure.c_str(),
                s.summary.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string id;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--list") == 0) {
      print_list();
      return 0;
    }
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      print_usage();
      return 0;
    }
    if ((std::strcmp(argv[i], "--fig") == 0 ||
         std::strcmp(argv[i], "--scenario") == 0) &&
        i + 1 < argc) {
      id = argv[++i];
    }
  }
  if (id.empty()) {
    print_usage();
    return 2;
  }
  return btsc::runner::run_scenario_main(id, argc, argv);
}
