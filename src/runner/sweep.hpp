// Parallel Monte-Carlo sweep engine.
//
// Every figure of the paper is the same computation: for each parameter
// point (a BER, a duty cycle, a Tsniff...) run N independent replications
// of a simulation and aggregate their samples. SweepRunner factors that
// pattern out once: it spreads the (point, replication) task grid across a
// std::thread pool and folds the per-replication samples back into one
// aggregate per point.
//
// Determinism contract: the sample produced by replication r of point p
// depends only on (p, r) — its seed is derived as a pure function
// sim::Rng::derive_stream_seed(base_seed, p, r), never from shared state —
// and samples are folded in replication order after all workers have
// finished. The result is therefore bitwise identical at any thread
// count, which the runner determinism test asserts for 1, 2 and 8
// threads.
//
// Beyond the plain grid the runner layers two robustness features, both
// off by default and both preserving that contract:
//
//  * Journaling/resume (SweepExecution::journal): every completed
//    replication's sample is serialized and fsync'd to an append-only
//    journal; a resumed run deserializes the journaled samples instead
//    of re-running their bodies. Because a sample depends only on
//    (p, r), replay-from-journal merges to bitwise-identical results —
//    the kill-and-resume CI gate byte-compares the final artifacts.
//
//  * Supervision (SweepOptions::{rep_timeout_s, max_retries,
//    keep_going}): a throwing replication is retried with exponential
//    backoff and then quarantined — recorded as (point, replication,
//    seed, error) in SweepExecution::quarantined — instead of aborting
//    the sweep; a replication that overruns the per-attempt deadline is
//    abandoned (its worker thread detached, a replacement spawned) and
//    quarantined as a timeout. The surviving replications still merge
//    deterministically.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/journal.hpp"
#include "sim/rng.hpp"
#include "sim/snapshot.hpp"

namespace btsc::runner {

/// Identifies one replication of one parameter point within a sweep.
struct Replication {
  /// Index of the parameter point in the sweep's point vector.
  std::size_t point_index = 0;
  /// Index of this replication within the point, 0 <= i < replications.
  std::size_t replication_index = 0;
  /// Deterministically derived seed for this replication: a pure function
  /// of (base_seed, point_index, replication_index). Simulations must draw
  /// all their randomness from it.
  std::uint64_t seed = 0;
  /// Cooperative cancellation flag, set by the supervisor when this
  /// replication overruns its deadline (null outside supervised runs).
  /// Long-running bodies SHOULD poll cancelled() and return early — an
  /// abandoned attempt's result is discarded either way, but a
  /// cooperative exit releases the worker thread instead of leaking it
  /// for the process lifetime.
  const std::atomic<bool>* cancel = nullptr;

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

/// Knobs of a sweep run.
struct SweepOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency(). With 1
  /// the sweep runs inline on the calling thread (no pool is spawned).
  /// Under supervision the calling thread is the watchdog instead, so
  /// `threads` workers are spawned even for 1.
  int threads = 1;
  /// Independent replications per parameter point (>= 1).
  int replications = 1;
  /// Root of the per-replication seed derivation.
  std::uint64_t base_seed = 1;
  /// Common random numbers: replication r gets the SAME seed at every
  /// parameter point (stream index 0 instead of the point index), so
  /// cross-point comparisons within one figure are paired on identical
  /// random streams — the variance-reduction scheme the activity and
  /// coexistence figures rely on. Off by default: independent points
  /// (e.g. BER curves with many replications) want distinct streams.
  bool common_random_numbers = false;

  // ---- supervision (any non-default value enables the supervisor) ----

  /// Per-attempt deadline in seconds; a replication still running past
  /// it is abandoned and quarantined as a timeout. <= 0 disables the
  /// watchdog.
  double rep_timeout_s = 0.0;
  /// Extra attempts after a throwing replication before it is
  /// quarantined (0 = fail/quarantine on the first throw). Timeouts are
  /// never retried: a deterministic simulation that hung once will hang
  /// again.
  int max_retries = 0;
  /// Base backoff between retry attempts, doubled per attempt.
  double retry_backoff_ms = 10.0;
  /// Quarantine failing replications and keep sweeping instead of
  /// aborting on the first error. Implied by rep_timeout_s/max_retries;
  /// set it alone to get quarantine semantics without deadline or retry.
  bool keep_going = false;

  bool supervised() const {
    return rep_timeout_s > 0.0 || max_retries > 0 || keep_going;
  }
};

/// One replication the supervisor gave up on: everything needed to
/// reproduce the failure standalone (the scenario id travels in the
/// surrounding report/CLI output).
struct QuarantineEntry {
  std::size_t point_index = 0;
  std::size_t replication_index = 0;
  std::uint64_t seed = 0;
  /// what() of the final failing attempt, or the timeout description.
  std::string error;
  /// Attempts consumed (1 = failed first try, no retries granted).
  int attempts = 1;
  /// True when the replication was abandoned on deadline rather than
  /// throwing.
  bool timed_out = false;
};

/// Per-run side channel of SweepRunner::run: the optional journal in,
/// the quarantine list and resume statistics out.
struct SweepExecution {
  /// When set, completed replications are appended to this journal and
  /// already-journaled ones are replayed instead of re-run.
  SweepJournal* journal = nullptr;
  /// Cooperative drain flag (e.g. the sweep service's SIGTERM handler).
  /// When non-null and set, workers stop CLAIMING new replications;
  /// attempts already in flight run to completion and journal normally,
  /// so a drained, journaled run resumes without re-running committed
  /// work.
  const std::atomic<bool>* stop = nullptr;
  /// Replications the supervisor quarantined, sorted by (point,
  /// replication). Empty for unsupervised runs (they abort on failure).
  std::vector<QuarantineEntry> quarantined;
  /// Replications replayed from the journal instead of executed.
  std::size_t journal_skipped = 0;
  /// True when `stop` cut the run short (some replications never ran):
  /// the merged result is partial and must not be published as a final
  /// artifact. False if the stop arrived after the grid had finished.
  bool stopped = false;
};

/// Resolves the effective worker count: `requested` if positive, else the
/// hardware concurrency (at least 1). Defined in sweep.cpp.
int resolve_thread_count(int requested);

namespace detail {

/// Runs `task(i)` for every i in [0, total) on `threads` workers pulling
/// from a shared atomic counter. Rethrows the first task exception on the
/// calling thread after all workers have stopped. When `stop` is non-null
/// and becomes set, workers finish their current task and claim no more.
/// Defined in sweep.cpp.
void run_task_grid(std::size_t total, int threads,
                   const std::function<void(std::size_t)>& task,
                   const std::atomic<bool>* stop = nullptr);

/// Handed to a supervised task attempt: the only way to publish results.
/// commit() runs `publish` under the supervisor lock iff the task has
/// not been abandoned, so a deadline-abandoned attempt can never race
/// its replacement or the final merge. Defined in sweep.cpp.
class CommitToken {
 public:
  CommitToken(void* shared, std::size_t index,
              const std::atomic<bool>* cancel)
      : shared_(shared), index_(index), cancel_(cancel) {}

  /// Returns false (without running `publish`) if the attempt was
  /// abandoned; the caller must then discard its work.
  bool commit(const std::function<void()>& publish);

  /// The per-attempt cancellation flag, valid for this attempt's
  /// lifetime (pass into Replication::cancel).
  const std::atomic<bool>* cancel_flag() const { return cancel_; }

 private:
  void* shared_;
  std::size_t index_;
  const std::atomic<bool>* cancel_;
};

/// One quarantined task of a supervised grid, pre-mapping to
/// (point, replication).
struct TaskFailure {
  std::size_t index = 0;
  std::string error;
  int attempts = 1;
  bool timed_out = false;
};

struct SupervisorConfig {
  int threads = 1;
  double rep_timeout_s = 0.0;
  int max_retries = 0;
  double retry_backoff_ms = 10.0;
  /// Cooperative drain flag (see SweepExecution::stop).
  const std::atomic<bool>* stop = nullptr;
};

/// Supervised grid executor: runs `attempt(i, token)` for every i in
/// [0, total) on `cfg.threads` spawned workers while the calling thread
/// watches per-attempt deadlines. Throwing attempts are retried with
/// exponential backoff up to cfg.max_retries, then quarantined;
/// deadline overruns abandon the worker (detach + replace) and
/// quarantine immediately. Failures come back sorted by index. Defined
/// in sweep.cpp.
void run_supervised_grid(std::size_t total, const SupervisorConfig& cfg,
                         const std::function<void(std::size_t, CommitToken&)>&
                             attempt,
                         std::vector<TaskFailure>& failures);

template <class S>
concept MergeableSample = requires(S a, const S& b) { a.merge(b); };

/// A sample the journal can persist: the save/restore pair mirrors the
/// stats::Accumulator state codec contract.
template <class S>
concept JournalableSample =
    requires(S s, const S& cs, sim::SnapshotWriter& w, sim::SnapshotReader& r) {
      cs.save_state(w);
      s.restore_state(r);
    };

}  // namespace detail

/// Spreads a sweep's replication grid across a thread pool.
///
/// `Sample` is whatever one replication produces — a struct of
/// stats::Accumulator / stats::RatioCounter partials, a plain row of
/// numbers, anything movable. When replications > 1 it must expose
/// `void merge(const Sample&)` (the parallel-reduction contract of
/// stats::Accumulator::merge); with a single replication per point no
/// merge is required. Journaled runs additionally need the
/// save_state/restore_state pair (detail::JournalableSample).
template <class Point, class Sample>
class SweepRunner {
 public:
  /// point -> replication -> sample functor. Must not touch shared mutable
  /// state: everything the simulation needs has to come from the point and
  /// the replication's derived seed.
  using Body = std::function<Sample(const Point&, const Replication&)>;

  explicit SweepRunner(SweepOptions options = {}) : options_(options) {
    if (options_.replications < 1) {
      throw std::invalid_argument("SweepRunner: replications must be >= 1");
    }
  }

  const SweepOptions& options() const { return options_; }

  /// Runs the full grid and returns one merged sample per point, in point
  /// order. Unsupervised: exceptions thrown by `body` are rethrown here
  /// (first wins) wrapped with the failing (point, replication, seed).
  /// Supervised: failures land in `ex.quarantined` instead and the
  /// surviving replications merge.
  std::vector<Sample> run(const std::vector<Point>& points, const Body& body,
                          SweepExecution& ex) const {
    const auto reps = static_cast<std::size_t>(options_.replications);
    if constexpr (!detail::MergeableSample<Sample>) {
      // Reject up front, before any (possibly expensive) simulation runs.
      if (reps > 1) {
        throw std::logic_error(
            "SweepRunner: Sample lacks merge() but replications > 1");
      }
    }
    if constexpr (!detail::JournalableSample<Sample>) {
      if (ex.journal != nullptr) {
        throw std::logic_error(
            "SweepRunner: Sample lacks save_state/restore_state but a "
            "journal was requested");
      }
    }
    const std::size_t total = points.size() * reps;

    // Captures the options by value, not `this`: run_supervised hands a
    // copy to workers that a deadline may abandon past this call.
    auto make_rep = [reps, base_seed = options_.base_seed,
                     crn = options_.common_random_numbers](std::size_t i) {
      Replication rep;
      rep.point_index = i / reps;
      rep.replication_index = i % reps;
      rep.seed = sim::Rng::derive_stream_seed(
          base_seed, crn ? 0 : rep.point_index, rep.replication_index);
      return rep;
    };

    // Heap-shared so a deadline-abandoned worker (which may outlive this
    // call) keeps the storage alive; its writes are fenced off by
    // CommitToken, never by destruction order.
    auto slots =
        std::make_shared<std::vector<std::optional<Sample>>>(total);

    // Replay journaled replications, then run only the remainder.
    std::vector<std::size_t> pending;
    pending.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      const Replication rep = make_rep(i);
      if constexpr (detail::JournalableSample<Sample>) {
        if (ex.journal != nullptr) {
          if (const SweepJournal::Record* rec = ex.journal->completed(
                  rep.point_index, rep.replication_index)) {
            if (rec->seed != rep.seed) {
              throw JournalError(
                  "journal: recorded seed mismatch at point=" +
                  std::to_string(rep.point_index) + " replication=" +
                  std::to_string(rep.replication_index) +
                  " (journal from a different configuration?)");
            }
            sim::SnapshotReader r(rec->sample);
            Sample s{};
            s.restore_state(r);
            if (!r.at_end()) {
              throw sim::SnapshotError("journal: trailing sample bytes");
            }
            (*slots)[i].emplace(std::move(s));
            ++ex.journal_skipped;
            continue;
          }
        }
      }
      pending.push_back(i);
    }

    if (!options_.supervised()) {
      run_plain(points, body, *slots, pending, make_rep, ex.journal,
                ex.stop);
    } else {
      run_supervised(points, body, slots, pending, make_rep, ex);
    }

    // A drain only "stopped" the run if replications are actually
    // missing; a stop that raced the natural end of the grid changes
    // nothing and the result stays publishable.
    if (ex.stop != nullptr && ex.stop->load(std::memory_order_relaxed)) {
      std::size_t have = 0;
      for (const auto& s : *slots) {
        if (s.has_value()) ++have;
      }
      ex.stopped = have + ex.quarantined.size() < total;
    }

    // Deterministic reduction: fold each point's replications in index
    // order, independent of which worker computed them. Quarantined
    // replications leave gaps; a fully-quarantined point degrades to a
    // default (empty-accumulator) sample rather than sinking the sweep.
    std::vector<Sample> merged;
    merged.reserve(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
      std::optional<Sample> acc;
      for (std::size_t r = 0; r < reps; ++r) {
        std::optional<Sample>& s = (*slots)[p * reps + r];
        if (!s.has_value()) continue;
        if (!acc.has_value()) {
          acc.emplace(std::move(*s));
        } else if constexpr (detail::MergeableSample<Sample>) {
          acc->merge(*s);
        }
      }
      merged.push_back(acc.has_value() ? std::move(*acc) : Sample{});
    }
    return merged;
  }

  std::vector<Sample> run(const std::vector<Point>& points,
                          const Body& body) const {
    SweepExecution ex;
    return run(points, body, ex);
  }

 private:
  /// Serializes a sample for the journal (guarded by JournalableSample
  /// at the call sites).
  static std::vector<std::uint8_t> encode_sample(const Sample& s)
    requires detail::JournalableSample<Sample>
  {
    sim::SnapshotWriter w;
    s.save_state(w);
    return w.take();
  }

  template <class MakeRep>
  void run_plain(const std::vector<Point>& points, const Body& body,
                 std::vector<std::optional<Sample>>& slots,
                 const std::vector<std::size_t>& pending,
                 const MakeRep& make_rep, SweepJournal* journal,
                 const std::atomic<bool>* stop) const {
    detail::run_task_grid(
        pending.size(), resolve_thread_count(options_.threads),
        [&](std::size_t k) {
          const std::size_t i = pending[k];
          const Replication rep = make_rep(i);
          try {
            Sample s = body(points[rep.point_index], rep);
            if constexpr (detail::JournalableSample<Sample>) {
              if (journal != nullptr) {
                journal->append(rep.point_index, rep.replication_index,
                                rep.seed, encode_sample(s));
              }
            }
            slots[i].emplace(std::move(s));
          } catch (const std::exception& e) {
            throw std::runtime_error(replication_context(rep) + ": " +
                                     e.what());
          } catch (...) {
            throw std::runtime_error(replication_context(rep) +
                                     ": unknown error");
          }
        },
        stop);
  }

  template <class MakeRep>
  void run_supervised(
      const std::vector<Point>& points, const Body& body,
      const std::shared_ptr<std::vector<std::optional<Sample>>>& slots,
      const std::vector<std::size_t>& pending, const MakeRep& make_rep,
      SweepExecution& ex) const {
    // Everything an abandoned worker might still touch is owned by the
    // attempt closure via shared_ptr copies: the closure (and thus the
    // data) outlives run() for exactly as long as the detached thread
    // needs it.
    auto points_copy = std::make_shared<const std::vector<Point>>(points);
    auto body_copy = std::make_shared<const Body>(body);
    SweepJournal* journal = ex.journal;

    detail::SupervisorConfig cfg;
    cfg.threads = resolve_thread_count(options_.threads);
    cfg.rep_timeout_s = options_.rep_timeout_s;
    cfg.max_retries = options_.max_retries;
    cfg.retry_backoff_ms = options_.retry_backoff_ms;
    cfg.stop = ex.stop;

    auto pending_copy = std::make_shared<const std::vector<std::size_t>>(
        pending);
    auto make_rep_copy = make_rep;
    const auto attempt = [slots, points_copy, body_copy, journal,
                          pending_copy, make_rep_copy](
                             std::size_t k, detail::CommitToken& token) {
      const std::size_t i = (*pending_copy)[k];
      Replication rep = make_rep_copy(i);
      rep.cancel = token.cancel_flag();
      Sample s = (*body_copy)((*points_copy)[rep.point_index], rep);
      token.commit([&] {
        if constexpr (detail::JournalableSample<Sample>) {
          if (journal != nullptr) {
            journal->append(rep.point_index, rep.replication_index, rep.seed,
                            encode_sample(s));
          }
        }
        (*slots)[i].emplace(std::move(s));
      });
    };

    std::vector<detail::TaskFailure> failures;
    detail::run_supervised_grid(pending.size(), cfg, attempt, failures);

    for (const detail::TaskFailure& f : failures) {
      const Replication rep = make_rep(pending[f.index]);
      QuarantineEntry q;
      q.point_index = rep.point_index;
      q.replication_index = rep.replication_index;
      q.seed = rep.seed;
      q.error = f.error;
      q.attempts = f.attempts;
      q.timed_out = f.timed_out;
      ex.quarantined.push_back(std::move(q));
    }
  }

  static std::string replication_context(const Replication& rep) {
    return "sweep replication failed: point=" +
           std::to_string(rep.point_index) +
           " replication=" + std::to_string(rep.replication_index) +
           " seed=" + std::to_string(rep.seed);
  }

  SweepOptions options_;
};

}  // namespace btsc::runner
