#include "io/durable.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <system_error>

namespace btsc::io {
namespace {

/// Removes the temp file (closing `fd` first when it is open) and throws
/// with the errno of the step that failed.
[[noreturn]] void abandon(int fd, const std::string& tmp, const char* what,
                          const std::string& file) {
  const int err = errno;
  if (fd >= 0) ::close(fd);
  ::unlink(tmp.c_str());
  throw std::system_error(err, std::generic_category(),
                          std::string(what) + " " + file);
}

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

}  // namespace

void publish_file(const std::string& path, const void* data, std::size_t size,
                  const PublishSeams* seams) {
  static std::atomic<std::uint64_t> tmp_seq{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(tmp_seq.fetch_add(
                              1, std::memory_order_relaxed));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) abandon(-1, tmp, "cannot create", tmp);
  const auto* bytes = static_cast<const char*>(data);
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n =
        seams != nullptr
            ? faultable_write(seams->write, fd, bytes + off, size - off)
            : ::write(fd, bytes + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      abandon(fd, tmp, "write failed for", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if ((seams != nullptr ? faultable_fsync(seams->sync, fd) : ::fsync(fd)) !=
      0) {
    abandon(fd, tmp, "fsync failed for", tmp);
  }
  if (::close(fd) != 0) abandon(-1, tmp, "close failed for", tmp);
  if ((seams != nullptr
           ? faultable_rename(seams->rename, tmp.c_str(), path.c_str())
           : ::rename(tmp.c_str(), path.c_str())) != 0) {
    abandon(-1, tmp, "rename failed onto", path);
  }
  fsync_parent_dir(path);
}

}  // namespace btsc::io
