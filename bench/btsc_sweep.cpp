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

void print_usage() {
  std::printf(
      "usage: btsc-sweep (--list | --fig N | --scenario ID) [options]\n"
      "\n"
      "options:\n"
      "  --list               list registered scenarios and exit\n"
      "  --fig N              run the scenario reproducing paper figure N\n"
      "  --scenario ID        run a scenario by id (see --list)\n"
      "  --threads N          worker threads (default 1; 0 = hardware)\n"
      "  --seeds N            replications per point (0 = scenario default)\n"
      "  --replications N     alias for --seeds\n"
      "  --quick              reduced replications and windows\n"
      "  --base-seed S        root of the deterministic seed derivation\n"
      "  --max-points N       keep only the first N sweep points\n"
      "  --csv | --json       output format (default: text table)\n"
      "  --out FILE           write to FILE (.json/.csv picks the format)\n"
      "  --no-burst           per-bit PHY reference transport (bit-identical\n"
      "                       results; swap-safety escape hatch)\n"
      "  --checkpoint-warmup  fork each replication from a per-point warm-up\n"
      "                       snapshot (bitwise equal to --cold-warmup)\n"
      "  --cold-warmup        staged replications, warm-up re-run every time\n"
      "                       (reference semantics of --checkpoint-warmup)\n"
      "  --checkpoint-dir DIR spill/load the per-point warm-up snapshots as\n"
      "                       durable checkpoint files (with\n"
      "                       --checkpoint-warmup)\n"
      "  --journal FILE       fsync each completed replication to an\n"
      "                       append-only journal (crash-safe progress)\n"
      "  --resume             skip replications already in --journal FILE;\n"
      "                       output is byte-identical to an uninterrupted\n"
      "                       run (kernel telemetry aside)\n"
      "  --rep-timeout S      per-replication deadline in seconds; overruns\n"
      "                       are quarantined, the sweep completes\n"
      "  --max-retries N      retry a throwing replication N times (with\n"
      "                       backoff) before quarantining it\n"
      "  --keep-going         quarantine failing replications instead of\n"
      "                       aborting the sweep (exit code 3 if any)\n"
      "  --quarantine-out F   write the JSON quarantine report to F\n");
}

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
