// Append-only results journal: crash-safe progress for a sweep.
//
// One journal file records one sweep configuration (the header) followed
// by one self-describing, checksummed record per COMPLETED replication.
// Each record is fsync'd before the replication is considered durable,
// so after a SIGKILL the journal holds exactly the replications whose
// samples are safe to reuse; a resumed run deserializes those samples,
// skips their bodies, and merges to output byte-identical to an
// uninterrupted run (the journal is bookkeeping, never result-defining).
//
// File layout
// -----------
//   [u32 len][header stream]  then  ([u32 len][record stream])*
//
// Both payloads are complete SnapshotWriter streams, so every block
// carries the snapshot magic, version and trailing FNV-1a checksum for
// free. The header stream holds a "JHDR" section binding the sweep
// configuration (scenario, base seed, replications, point count, quick,
// max_points, CRN, staged warm-up); resuming under a different
// configuration throws instead of merging foreign samples. A record
// stream holds a "JREC" section: point index, replication index, the
// replication's derived seed (revalidated on resume), and the serialized
// sample bytes.
//
// Torn-tail policy: a crash can sever the final record mid-write. On
// resume the intact prefix is kept and the file is truncated at the
// first block that is short or fails validation — those replications
// simply re-run. Corruption is indistinguishable from a tear by design:
// the journal is append-only, so anything invalid can only be the tail.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace btsc::runner {

/// Journal-layer failure (bad header, configuration mismatch, I/O error).
/// Torn tails are NOT errors — they truncate and resume.
class JournalError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The sweep configuration a journal binds. Every field is
/// result-defining: two runs agreeing on all of them produce the same
/// replication grid, seeds, and samples.
struct JournalConfig {
  std::string scenario;
  std::uint64_t base_seed = 0;
  std::uint32_t replications = 0;
  std::uint32_t points = 0;  // after any --max-points trim
  bool quick = false;
  std::int32_t max_points = 0;
  bool common_random_numbers = false;
  /// Every sweep writes true. Journals written by earlier single-stage
  /// builds carry false, so resuming one is refused as a config mismatch.
  bool staged_warmup = false;

  bool operator==(const JournalConfig&) const = default;
};

/// Append-only journal over one sweep run. Thread-safe: append() may be
/// called concurrently from sweep workers; each call writes and fsyncs
/// one record under an internal lock before returning.
class SweepJournal {
 public:
  /// A replication's durable result, as loaded on resume.
  struct Record {
    std::uint64_t seed = 0;
    std::vector<std::uint8_t> sample;
  };

  /// Opens `path`. With resume=false the file must not already exist
  /// (a stale journal silently skipping replications would be worse than
  /// an error). With resume=true an existing file is validated against
  /// `config`, its intact records are loaded, and any torn tail is
  /// truncated; a missing file starts fresh.
  SweepJournal(const std::string& path, const JournalConfig& config,
               bool resume);
  ~SweepJournal();

  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// The record loaded for (point, replication), or nullptr if that
  /// replication has not been journaled. Only pre-existing (resumed)
  /// records are returned; appends from the current run are not
  /// re-read.
  const Record* completed(std::uint64_t point, std::uint64_t rep) const;

  /// Number of records loaded on open (0 for a fresh journal).
  std::size_t completed_count() const { return loaded_.size(); }

  /// Durably appends one completed replication: the record is written
  /// with one write() and fsync'd before this returns. If the write or
  /// sync fails the journal truncates back to the last durable record
  /// before throwing, so a failed append never leaves a torn block in
  /// the MIDDLE of the file (the torn-tail invariant survives partial
  /// failures, not just crashes). If even that truncation fails the
  /// journal is poisoned: every later append throws immediately.
  void append(std::uint64_t point, std::uint64_t rep, std::uint64_t seed,
              const std::vector<std::uint8_t>& sample);

  /// Observer invoked (under the journal lock) after each successful,
  /// durable append with (point, replication). The sweep service uses
  /// this to stream per-replication progress; null disables it.
  void set_observer(std::function<void(std::uint64_t, std::uint64_t)> fn) {
    observer_ = std::move(fn);
  }

 private:
  std::string path_;
  int fd_ = -1;
  std::mutex mu_;
  std::uint64_t end_ = 0;  // offset one past the last durable block
  bool poisoned_ = false;
  std::function<void(std::uint64_t, std::uint64_t)> observer_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Record> loaded_;
};

}  // namespace btsc::runner
