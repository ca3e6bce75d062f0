// Scenario registry: every Monte-Carlo figure of the paper (and the
// extension studies) as a named, parameterised sweep over SweepRunner.
//
// A scenario maps a paper figure to (points, staged study, output
// columns). Every replication is a warm-up stage followed by a measure
// stage: the warm-up runs once per point on a dedicated warm-up seed,
// and each replication restores its snapshot and measures on its own
// replication seed. The registry is what the `btsc-sweep` CLI and the
// `btsc-sweepd` service run; docs/SCENARIOS.md documents each entry.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/sweep.hpp"

namespace btsc::core {
class Reporter;
}

namespace btsc::runner {

/// Caller-side knobs of one scenario run. Zero-valued fields mean "use
/// the scenario's default".
struct ScenarioRequest {
  /// Worker threads; 0 = hardware concurrency, 1 = serial.
  int threads = 1;
  /// Replications per parameter point; 0 = scenario default.
  int replications = 0;
  /// Use the scenario's reduced (--quick) replication count and windows.
  bool quick = false;
  /// Root seed of the deterministic per-replication derivation;
  /// 0 = scenario default.
  std::uint64_t base_seed = 0;
  /// Keep only the first N parameter points (reduced sweeps for tests
  /// and CI); 0 = all points.
  int max_points = 0;
  /// Test hook: re-run every replication's warm-up cold instead of
  /// forking it from the point's snapshot (no cache, no --checkpoint-dir).
  /// The reference semantics of the fork, which must match it bit for
  /// bit; deliberately not reachable from the CLI or the job protocol.
  bool cold_warmup = false;
  /// Append-only results journal (--journal): every completed
  /// replication is fsync'd to this file; empty = no journal. The
  /// journal is bookkeeping, never result-defining: journaled and plain
  /// runs emit byte-identical artifacts (the crash-injection CI gate).
  std::string journal_path;
  /// Resume from an existing journal (--resume): already-journaled
  /// replications are replayed from disk instead of re-run. Requires
  /// journal_path.
  bool resume = false;
  /// Durable warm-up checkpoint directory (--checkpoint-dir): the
  /// per-point warm-up snapshot cache spills to / loads from
  /// CheckpointFiles here, so a fresh process skips warm-ups a previous
  /// one already paid for. Empty = in-memory cache only.
  std::string checkpoint_dir;
  /// Per-replication deadline in seconds (--rep-timeout); overrunning
  /// replications are quarantined as timeouts. <= 0 = no deadline.
  double rep_timeout_s = 0.0;
  /// Extra attempts for a throwing replication before quarantine
  /// (--max-retries).
  int max_retries = 0;
  /// Quarantine failing replications and keep sweeping (--keep-going);
  /// implied by rep_timeout_s/max_retries.
  bool keep_going = false;
  /// Cooperative drain flag (the sweep service's SIGTERM path): when
  /// non-null and set, the grid stops claiming new replications;
  /// in-flight ones finish and journal, and the result comes back with
  /// `interrupted` set instead of being publishable.
  const std::atomic<bool>* stop = nullptr;
  /// Per-replication commit stream: invoked with (point, replication)
  /// after each replication is durably journaled. Only fires on
  /// journaled runs (the journal IS the commit point). Null = none.
  std::function<void(std::uint64_t, std::uint64_t)> on_commit;
};

/// A completed sweep: a titled table plus the metadata needed to
/// reproduce it. Consumed by the core::Reporter backends.
struct SweepResult {
  /// Registry id, e.g. "fig08".
  std::string id;
  /// Human-readable title (the bench header line).
  std::string title;
  /// Column names, one per entry of each row.
  std::vector<std::string> columns;
  /// One row per parameter point, in point order.
  std::vector<std::vector<double>> rows;
  /// Free-form annotations printed after the table.
  std::vector<std::string> notes;
  /// Worker threads actually used.
  int threads = 1;
  /// Replications per point actually used.
  int replications = 1;
  /// Base seed actually used.
  std::uint64_t base_seed = 0;
  /// Whether the reduced (--quick) windows/replications were used; part
  /// of the result-defining configuration (it changes measurement
  /// windows), so it is recorded in report metadata.
  bool quick = false;
  /// --max-points truncation applied to the sweep (0 = full point list);
  /// recorded in metadata so a truncated artifact is distinguishable
  /// from a complete run.
  int max_points = 0;
  /// Wall-clock duration of the sweep (excludes reporting).
  double wall_seconds = 0.0;
  /// Whether the supervisor ran (any of rep_timeout_s / max_retries /
  /// keep_going). Supervised artifacts record their quarantine outcome
  /// in metadata; unsupervised ones stay byte-identical to historical
  /// artifacts.
  bool supervised = false;
  /// Replications the supervisor quarantined, sorted by
  /// (point, replication). Empty on a healthy run.
  std::vector<QuarantineEntry> quarantined;
  /// Replications replayed from the journal instead of executed
  /// (resume bookkeeping; deliberately NOT reported in artifacts so a
  /// resumed artifact stays byte-identical to an uninterrupted one).
  std::size_t journal_skipped = 0;
  /// True when a drain (ScenarioRequest::stop) cut the sweep short: the
  /// rows are partial and the caller must NOT write a final artifact —
  /// the journal holds the committed prefix for a later resume.
  bool interrupted = false;
};

/// Registry metadata of one scenario.
struct ScenarioInfo {
  /// Stable id used on the command line, e.g. "fig08" or "throughput".
  std::string id;
  /// Paper figure number ("8"), empty for extension/ablation studies.
  std::string figure;
  /// One-line description shown by `btsc-sweep --list`.
  std::string summary;
  /// Replications per point when the request does not override them.
  int default_replications = 1;
  /// Replications per point under --quick.
  int quick_replications = 1;
  /// Base seed when the request does not override it.
  std::uint64_t default_base_seed = 1;
  /// Runs every parameter point on the same replication seeds (common
  /// random numbers), pairing cross-point comparisons — used by the
  /// activity/throughput/coexistence figures whose rows are contrasted
  /// against each other.
  bool common_random_numbers = false;
};

/// All registered scenarios, in figure order.
const std::vector<ScenarioInfo>& scenarios();

/// Looks a scenario up by id ("fig08") or by bare figure number ("8");
/// nullptr when unknown.
const ScenarioInfo* find_scenario(const std::string& id_or_figure);

/// Runs one scenario end to end (replications spread across SweepRunner
/// threads) and returns its table. Throws std::invalid_argument for an
/// unknown id.
SweepResult run_scenario(const std::string& id_or_figure,
                         const ScenarioRequest& request);

/// Streams a completed sweep through a reporter backend (begin .. end).
void write_result(const SweepResult& result, core::Reporter& reporter);

/// JSON quarantine report: machine-readable enough for a driver (or the
/// sweep service) to retry or exclude the quarantined replications.
std::string quarantine_report(const SweepResult& result);

/// Usage text of `btsc-sweep`.
const char* sweep_usage();

/// Complete main() body of `btsc-sweep`: parses the shared BenchArgs
/// flags (--seeds/--replications, --quick, --threads, --csv/--json,
/// --out, --base-seed, --max-points, --checkpoint-dir, --journal...),
/// runs `id`, and writes the result to stdout or the requested file.
/// Returns the process exit code: 2 for a usage error (an unknown
/// option or one missing its value, negative counts, --resume without
/// --journal), 1 for a failed run or write, 3 when a supervised run
/// quarantined replications.
int run_scenario_main(const std::string& id, int argc, char** argv);

}  // namespace btsc::runner
