// Durable checkpoints: the file-backed layer over sim/snapshot.hpp.
//
// An in-memory snapshot (PR 6) dies with the process. A CheckpointFile
// wraps one snapshot image together with its *construction recipe* — the
// scenario id, point index, warm-up seed, construction seed and a
// free-form config blob (the system's construction parameters) —
// so a FRESH process can rebuild the scaffold through the ordinary
// deterministic construction path and restore the image into it. The
// recipe is the part a restore cannot derive from the bytes alone.
//
// File format
// -----------
// The file is itself one SnapshotWriter stream (magic, version, trailing
// FNV-1a checksum — validated before any field is consumed) holding two
// sections:
//
//   "CKPT"  recipe: str scenario, u64 point_index, u64 warm_seed,
//           u64 construction_seed, u32 snapshot_version (of the embedded
//           image), byte_vec config blob
//   "IMG "  the embedded snapshot image bytes (themselves a complete,
//           independently-checksummed snapshot stream)
//
// Atomic-write protocol: write_checkpoint_file publishes the stream
// with io::publish_file (io/durable.hpp: temp file, fsync, rename,
// directory fsync), through the kCheckpoint* fault sites. A crash at
// any instant leaves either the old file, the new file, or a stale temp
// file that is never read — never a torn checkpoint. load_checkpoint_file throws SnapshotError on truncation,
// corruption, or a stale snapshot_version, and never partially applies:
// the caller's scaffold is untouched on failure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/snapshot.hpp"

namespace btsc::sim {

/// One durable checkpoint: a snapshot image plus the recipe needed to
/// rebuild the object graph it restores into.
struct CheckpointFile {
  /// Scenario id ("fig08") whose construction path rebuilds the scaffold.
  std::string scenario;
  /// Sweep point index the warm-up belongs to.
  std::uint64_t point_index = 0;
  /// The warm-up stage's derived seed (identifies the warm-up stream).
  std::uint64_t warm_seed = 0;
  /// Seed whose construction path produced the system (creation retries
  /// can perturb it away from warm_seed; the scaffold must replay it).
  std::uint64_t construction_seed = 0;
  /// kSnapshotVersion of the embedded image at write time. A loader on a
  /// build with a different version rejects the file up front instead of
  /// failing deep inside restore.
  std::uint32_t snapshot_version = kSnapshotVersion;
  /// Free-form construction parameters (BER, timeout slots, packet
  /// type...); compared verbatim by the caller so a checkpoint from an
  /// edited point list is treated as a miss, not restored into the
  /// wrong scaffold.
  std::vector<std::uint8_t> config;
  /// The snapshot image itself (a complete SnapshotWriter stream).
  std::vector<std::uint8_t> snapshot;
};

/// Serializes `file` and writes it to `path` via the atomic temp + fsync
/// + rename protocol. Throws SnapshotError (with errno context) if any
/// filesystem step fails; on failure the previous `path` content, if
/// any, is intact.
void write_checkpoint_file(const std::string& path, const CheckpointFile& file);

/// Loads and validates a checkpoint written by write_checkpoint_file.
/// Throws SnapshotError on a missing/unreadable file, bad magic or
/// checksum, torn or truncated stream, or a snapshot_version that does
/// not match this build.
CheckpointFile load_checkpoint_file(const std::string& path);

/// Serialization used by write_checkpoint_file; exposed so tests can
/// craft adversarial variants (stale versions, torn sections) without
/// replicating the layout.
std::vector<std::uint8_t> encode_checkpoint_file(const CheckpointFile& file);

/// Parses bytes in the encode_checkpoint_file layout; same validation
/// (and exceptions) as load_checkpoint_file minus the I/O.
CheckpointFile decode_checkpoint_file(const std::vector<std::uint8_t>& bytes);

}  // namespace btsc::sim
