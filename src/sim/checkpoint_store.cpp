#include "sim/checkpoint_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

#include "io/durable.hpp"

namespace btsc::sim {
namespace {

constexpr std::uint32_t kRecipeTag = snapshot_tag("CKPT");
constexpr std::uint32_t kImageTag = snapshot_tag("IMG ");

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw SnapshotError("checkpoint: " + what + " " + path + ": " +
                      std::strerror(errno));
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
  static constexpr io::PublishSeams kSeams{io::FaultOp::kCheckpointWrite,
                                           io::FaultOp::kCheckpointSync,
                                           io::FaultOp::kCheckpointRename};
  try {
    io::publish_file(path, bytes.data(), bytes.size(), &kSeams);
  } catch (const std::system_error& e) {
    throw SnapshotError(std::string("checkpoint: ") + e.what());
  }
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
