// btsc-sweepd: the fault-tolerant sweep service.
//
// A long-running job queue over the runner/ sweep engine. Jobs arrive
// as line-delimited JSON (Unix-domain socket or a batch job file), run
// on a bounded worker pool with per-job journals and SweepOptions
// supervision, and emit one JSON artifact per job — byte-identical to
// what `btsc-sweep --scenario X --out job.json` would have written.
//
// Crash-only design
// -----------------
// Every state transition is an atomic filesystem operation in the jobs
// directory; the in-memory queue is a pure cache of it:
//
//   <id>.job             durable accept (temp+fsync+rename BEFORE the
//                        client is acked) — the job now survives SIGKILL
//   <id>.journal         per-replication commits (fsync'd, append-only)
//   <id>.progress.jsonl  advisory per-replication commit stream
//   <id>.json            final artifact (atomic rename: existence ==
//                        completeness)
//   <id>.quarantine.json quarantine report of a supervised job
//   <id>.error.json      terminal job failure (bad scenario, poisoned
//                        journal...) — recovery skips, operators inspect
//
// Recovery is therefore a directory scan: a .job without .json or
// .error.json is incomplete and re-enqueues with resume=true; committed
// replications replay from the journal, so restart never re-runs paid
// work and the final artifact is byte-identical to an uninterrupted run
// (the integration kill matrix gates this at 1/2/8 threads).
//
// Drain (SIGTERM) is cooperative: stop accepting, stop CLAIMING new
// replications, finish+journal the in-flight ones, exit 0 without
// writing partial artifacts. SIGKILL needs no handler at all — that is
// the crash-only argument.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/job.hpp"

namespace btsc::service {

struct ServiceConfig {
  /// Job state directory (created if missing). Required.
  std::string jobs_dir;
  /// Durable warm-up checkpoint cache shared by all jobs.
  /// Empty = <jobs_dir>/checkpoints.
  std::string checkpoint_dir;
  /// Concurrent jobs (each job additionally runs its own sweep threads).
  int workers = 1;
  /// Backpressure: submissions beyond this many queued jobs are rejected
  /// with a reason (never silently dropped or blocked).
  std::size_t queue_limit = 16;
  /// LRU byte budget over checkpoint_dir's .ckpt files; oldest-mtime
  /// checkpoints are evicted after each job while over budget. 0 = no
  /// eviction.
  std::uint64_t cache_budget_bytes = 0;
  /// Optional external terminate flag (the CLI's signal handler sets
  /// it); serve()/wait_idle() poll it and translate it into drain().
  const std::atomic<bool>* terminate = nullptr;
};

enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kDone,
  kQuarantined,  // finished, but with quarantined replications
  kFailed,
};
const char* job_state_name(JobState s);

struct JobStatus {
  JobSpec spec;
  JobState state = JobState::kQueued;
  std::string error;          // terminal failure reason (kFailed)
  std::uint64_t committed = 0;  // replications durably journaled this run
  std::uint64_t resumed = 0;    // replications replayed from the journal
  double wall_s = 0.0;          // sweep wall time (finished jobs)
};

class SweepService {
 public:
  explicit SweepService(ServiceConfig cfg);
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Scans the jobs directory: finished jobs are registered as done,
  /// failed ones as failed, and every incomplete .job is re-enqueued
  /// with resume semantics. Unlinks stale atomic-write temp files.
  /// Returns the number of jobs re-enqueued. Call before start().
  std::size_t recover();

  /// Spawns the worker pool.
  void start();

  /// Thread-safe submission. Durably persists the .job file BEFORE
  /// accepting. Returns "" on accept, else the rejection reason (queue
  /// full, duplicate id, draining, already completed, I/O failure).
  std::string submit(const JobSpec& spec);

  /// Snapshot of every known job, sorted by id.
  std::vector<JobStatus> status() const;

  /// Graceful drain: reject new submissions, claim no further jobs or
  /// replications, let in-flight replications finish and journal.
  /// Idempotent, callable from any thread (NOT from a signal handler —
  /// use ServiceConfig::terminate for that).
  void drain();
  bool draining() const {
    return drain_.load(std::memory_order_relaxed);
  }

  /// Blocks until the queue is empty and no job is running, or until a
  /// drain interrupts the wait. Polls ServiceConfig::terminate.
  void wait_idle();

  /// Stops and joins the worker pool (after wait_idle in batch use, or
  /// after drain). Idempotent.
  void shutdown();

  /// Serves line-delimited JSON requests on a Unix-domain socket until
  /// drained. Ops: submit (default), status, drain, ping. Returns when
  /// the listener has shut down; in-flight jobs may still be finishing
  /// (call wait_idle/shutdown next).
  void serve(const std::string& socket_path);

  /// Enforces cache_budget_bytes over checkpoint_dir now; returns the
  /// number of evicted checkpoint files.
  std::size_t enforce_cache_budget();

  std::string artifact_path(const std::string& id) const;
  std::string journal_path(const std::string& id) const;

 private:
  void worker_loop();
  void run_job(const std::string& id);
  void serve_connection(int fd);
  std::string handle_request_line(const std::string& line);
  std::string job_path(const std::string& id) const;

  ServiceConfig cfg_;
  std::atomic<bool> drain_{false};
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // queue/drain/stop changes
  std::condition_variable idle_cv_;  // running/queue emptied
  std::deque<std::string> queue_;
  std::map<std::string, JobStatus> jobs_;
  std::size_t running_ = 0;
  bool stopping_ = false;
  bool started_ = false;
  std::vector<std::thread> pool_;
  std::mutex conn_mu_;
  std::vector<std::thread> connections_;
};

}  // namespace btsc::service
