#include "sim/checkpoint_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

#include "io/fault.hpp"

namespace btsc::sim {
namespace {

constexpr std::uint32_t kRecipeTag = snapshot_tag("CKPT");
constexpr std::uint32_t kImageTag = snapshot_tag("IMG ");

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw SnapshotError("checkpoint: " + what + " " + path + ": " +
                      std::strerror(errno));
}

/// fsync the directory containing `path` so the rename itself is
/// durable. Best effort on filesystems that reject directory fsync.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

/// The file's layout, shared by encode and decode.
template <class F, class Ar>
void checkpoint_file_io(F& f, Ar& a) {
  a.section(kRecipeTag, [&] {
    a.io(f.scenario, f.point_index, f.warm_seed, f.construction_seed,
         f.snapshot_version, f.config);
  });
  a.section(kImageTag, [&] { a.io(f.snapshot); });
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint_file(const CheckpointFile& file) {
  SnapshotWriter w;
  checkpoint_file_io(file, w);
  return w.take();
}

CheckpointFile decode_checkpoint_file(const std::vector<std::uint8_t>& bytes) {
  SnapshotReader r(bytes);
  CheckpointFile f;
  checkpoint_file_io(f, r);
  if (!r.at_end()) {
    throw SnapshotError("checkpoint: trailing bytes after image section");
  }
  // Version gate BEFORE anyone touches the embedded image: a recipe from
  // another build must fail loudly here, not deep inside restore_state.
  if (f.snapshot_version != kSnapshotVersion) {
    throw SnapshotError("checkpoint: stale snapshot version " +
                        std::to_string(f.snapshot_version) + " (this build: " +
                        std::to_string(kSnapshotVersion) + ")");
  }
  return f;
}

void write_checkpoint_file(const std::string& path,
                           const CheckpointFile& file) {
  const std::vector<std::uint8_t> bytes = encode_checkpoint_file(file);
  // The temp name must be unique per WRITER, not per process: two sweep
  // workers spilling the same point concurrently (same pid, same target
  // path) must not rename each other's temp away, so a per-process
  // sequence number joins the pid.
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_seq.fetch_add(
                              1, std::memory_order_relaxed));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("cannot create", tmp);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = io::faultable_write(io::FaultOp::kCheckpointWrite, fd,
                                          bytes.data() + off,
                                          bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_io("write failed for", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (io::faultable_fsync(io::FaultOp::kCheckpointSync, fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_io("fsync failed for", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_io("close failed for", tmp);
  }
  if (io::faultable_rename(io::FaultOp::kCheckpointRename, tmp.c_str(),
                           path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_io("rename failed onto", path);
  }
  fsync_parent_dir(path);
}

CheckpointFile load_checkpoint_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_io("cannot open", path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_io("read failed for", path);
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
  }
  ::close(fd);
  return decode_checkpoint_file(bytes);
}

}  // namespace btsc::sim
