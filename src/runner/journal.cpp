#include "runner/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "io/fault.hpp"
#include "sim/snapshot.hpp"

namespace btsc::runner {
namespace {

constexpr std::uint32_t kHeaderTag = sim::snapshot_tag("JHDR");
constexpr std::uint32_t kRecordTag = sim::snapshot_tag("JREC");

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw JournalError("journal: " + what + " " + path + ": " +
                     std::strerror(errno));
}

/// The header's layout, shared by encode_header and decode_header.
template <class C, class Ar>
void header_io(C& c, Ar& a) {
  a.section(kHeaderTag, [&] {
    a.io(c.scenario, c.base_seed, c.replications, c.points, c.quick,
         sim::as<std::uint32_t>(c.max_points), c.common_random_numbers,
         c.staged_warmup);
  });
}

/// One record's layout, shared by append and the resume scan.
template <class U64, class Bytes, class Ar>
void record_io(U64& point, U64& rep, U64& seed, Bytes& sample, Ar& a) {
  a.section(kRecordTag, [&] { a.io(point, rep, seed, sample); });
}

std::vector<std::uint8_t> encode_header(const JournalConfig& c) {
  sim::SnapshotWriter w;
  header_io(c, w);
  return w.take();
}

JournalConfig decode_header(const std::vector<std::uint8_t>& bytes) {
  sim::SnapshotReader r(bytes);
  JournalConfig c;
  header_io(c, r);
  if (!r.at_end()) throw sim::SnapshotError("journal: trailing header bytes");
  return c;
}

/// One length-prefixed block: [u32 len][payload]. A single write() call
/// keeps the kernel-visible append atomic with respect to our own
/// torn-tail scan (a crash tears at most the final block).
void write_block(int fd, const std::string& path,
                 const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> block(4 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(block.data(), &len, 4);
  std::memcpy(block.data() + 4, payload.data(), payload.size());
  std::size_t off = 0;
  while (off < block.size()) {
    const ssize_t n = io::faultable_write(io::FaultOp::kJournalWrite, fd,
                                          block.data() + off,
                                          block.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_io("write failed for", path);
    }
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

SweepJournal::SweepJournal(const std::string& path,
                           const JournalConfig& config, bool resume)
    : path_(path) {
  const bool exists = ::access(path.c_str(), F_OK) == 0;
  if (exists && !resume) {
    throw JournalError("journal: " + path +
                       " already exists; pass --resume to continue it or "
                       "remove the file to start over");
  }

  if (exists) {
    // Load the whole file, validate the header, keep the intact record
    // prefix, and remember where the first torn/invalid block begins.
    const int rfd = ::open(path.c_str(), O_RDONLY);
    if (rfd < 0) throw_io("cannot open", path);
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[1 << 16];
    for (;;) {
      const ssize_t n = ::read(rfd, buf, sizeof(buf));
      if (n < 0) {
        if (errno == EINTR) continue;
        ::close(rfd);
        throw_io("read failed for", path);
      }
      if (n == 0) break;
      bytes.insert(bytes.end(), buf, buf + n);
    }
    ::close(rfd);

    std::size_t pos = 0;
    auto next_block =
        [&](std::vector<std::uint8_t>& payload) -> bool {
      if (bytes.size() - pos < 4) return false;
      std::uint32_t len;
      std::memcpy(&len, bytes.data() + pos, 4);
      if (bytes.size() - pos - 4 < len) return false;
      payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(pos) + 4,
                     bytes.begin() + static_cast<std::ptrdiff_t>(pos) + 4 +
                         len);
      pos += 4 + len;
      return true;
    };

    std::vector<std::uint8_t> payload;
    if (!next_block(payload)) {
      throw JournalError("journal: " + path + ": missing or torn header");
    }
    JournalConfig on_disk;
    try {
      on_disk = decode_header(payload);
    } catch (const sim::SnapshotError& e) {
      throw JournalError("journal: " + path + ": " + e.what());
    }
    if (!(on_disk == config)) {
      throw JournalError(
          "journal: " + path +
          " was written by a different sweep configuration (scenario/seed/"
          "replications/points/quick/max-points/warmup mismatch); refusing "
          "to merge foreign samples");
    }

    std::size_t good_end = pos;
    while (next_block(payload)) {
      Record rec;
      std::uint64_t point, rep;
      try {
        sim::SnapshotReader r(payload);
        record_io(point, rep, rec.seed, rec.sample, r);
        if (!r.at_end()) {
          throw sim::SnapshotError("journal: trailing record bytes");
        }
      } catch (const sim::SnapshotError&) {
        break;  // tear starts here; everything before it is intact
      }
      loaded_[{point, rep}] = std::move(rec);
      good_end = pos;
    }

    fd_ = ::open(path.c_str(), O_WRONLY, 0644);
    if (fd_ < 0) throw_io("cannot reopen", path);
    if (good_end != bytes.size()) {
      // Sever the torn tail so new appends continue a valid stream.
      if (::ftruncate(fd_, static_cast<off_t>(good_end)) != 0) {
        const int e = errno;
        ::close(fd_);
        fd_ = -1;
        errno = e;
        throw_io("truncate failed for", path);
      }
    }
    if (::lseek(fd_, 0, SEEK_END) < 0) {
      const int e = errno;
      ::close(fd_);
      fd_ = -1;
      errno = e;
      throw_io("seek failed for", path);
    }
    end_ = good_end;
    return;
  }

  // Fresh journal: create, write the header, make it durable before the
  // first record can land.
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
  if (fd_ < 0) throw_io("cannot create", path);
  const std::vector<std::uint8_t> header = encode_header(config);
  try {
    write_block(fd_, path_, header);
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  end_ = 4 + header.size();
  if (::fsync(fd_) != 0) {
    const int e = errno;
    ::close(fd_);
    fd_ = -1;
    errno = e;
    throw_io("fsync failed for", path);
  }
}

SweepJournal::~SweepJournal() {
  if (fd_ >= 0) ::close(fd_);
}

const SweepJournal::Record* SweepJournal::completed(std::uint64_t point,
                                                    std::uint64_t rep) const {
  const auto it = loaded_.find({point, rep});
  return it == loaded_.end() ? nullptr : &it->second;
}

void SweepJournal::append(std::uint64_t point, std::uint64_t rep,
                          std::uint64_t seed,
                          const std::vector<std::uint8_t>& sample) {
  sim::SnapshotWriter w;
  record_io(point, rep, seed, sample, w);
  const std::vector<std::uint8_t> payload = w.take();

  std::lock_guard<std::mutex> lock(mu_);
  if (poisoned_) {
    throw JournalError("journal: " + path_ +
                       " is poisoned after an unrecoverable append failure; "
                       "refusing further appends");
  }

  // Restores the file to the last durable block after a failed append
  // so the failure never leaves a torn block in the middle of the
  // stream. Poisons the journal if the rollback itself fails.
  const auto rollback = [&] {
    if (::ftruncate(fd_, static_cast<off_t>(end_)) != 0 ||
        ::lseek(fd_, static_cast<off_t>(end_), SEEK_SET) < 0) {
      poisoned_ = true;
      return;
    }
    // Best effort: make the rollback itself durable. If this fails the
    // tail may persist partially — which the resume-time torn-tail scan
    // handles, because the tail is still the only invalid region.
    ::fdatasync(fd_);
  };

  try {
    write_block(fd_, path_, payload);
  } catch (const JournalError&) {
    rollback();
    throw;
  }
  // The replication is only durable once the record is on stable
  // storage; a crash after this sync never re-runs it. fdatasync
  // suffices: the file size is metadata required to read the appended
  // data back, so POSIX guarantees it is flushed too — what it skips
  // (mtime and friends) is exactly the part the resume scan never
  // looks at, and on journalled filesystems that saves a second
  // metadata write per record.
  if (io::faultable_fdatasync(io::FaultOp::kJournalSync, fd_) != 0) {
    // The record hit the file but was never made durable; drop it so the
    // journal keeps exactly the replications reported as committed.
    rollback();
    throw_io("fdatasync failed for", path_);
  }
  end_ += 4 + payload.size();
  if (observer_) observer_(point, rep);
}

}  // namespace btsc::runner
