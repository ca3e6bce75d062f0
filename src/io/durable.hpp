// Durable file publication: the one write path for files whose
// existence a later process trusts as proof of complete content
// (checkpoint files, the sweep service's job records and artifacts).
//
// publish_file writes the bytes to `<path>.tmp.<pid>.<seq>` -- seq is a
// per-process counter, so two writers of the SAME target (sweep workers
// spilling one shared warm-up) cannot rename each other's temp away --
// fsyncs and closes it, renames it over `path`, and fsyncs the
// containing directory so the rename itself is durable (best effort on
// filesystems that reject directory fsync). A crash at any instant
// leaves the old file, the new file, or a stale temp file that no
// reader opens -- never a torn `path`.
#pragma once

#include <cstddef>
#include <string>

#include "io/fault.hpp"

namespace btsc::io {

/// The fault-plan sites of one caller's write, fsync and rename.
struct PublishSeams {
  FaultOp write;
  FaultOp sync;
  FaultOp rename;
};

/// Publishes `size` bytes at `data` as `path`. With `seams`, the
/// write/fsync/rename syscalls go through the faultable_* wrappers at
/// those sites; without, they are the raw syscalls. On failure the temp
/// file is removed and std::system_error is thrown, carrying the errno
/// of the failed step and naming the step and its file.
void publish_file(const std::string& path, const void* data, std::size_t size,
                  const PublishSeams* seams = nullptr);

}  // namespace btsc::io
