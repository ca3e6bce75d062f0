// Deterministic I/O fault injection for the durability layer.
//
// Production code in io/durable (for sim/checkpoint_store) and
// runner/journal routes its write/fsync/rename syscalls through the
// faultable_* wrappers below.
// With no plan installed (the default) each wrapper is one relaxed
// atomic load plus the raw syscall — zero overhead, no locks, nothing
// to configure. Tests install a FaultPlan: a schedule of rules keyed by
// per-operation counters ("the 3rd journal write returns ENOSPC", "every
// checkpoint fsync from the 2nd on fails"), which makes every disk
// failure mode reproducible under ctest instead of requiring a full
// disk or a yanked power cord.
//
// Fault semantics
// ---------------
//   kEnospc      write()/rename() fails with ENOSPC, nothing written.
//   kShortWrite  write() really writes ~half the buffer and returns the
//                short count (compose with kCrash on the next write to
//                model a torn append).
//   kSyncFail    fsync()/fdatasync() fails with EIO.
//   kCrash       throws InjectedCrash at the decide point, leaving file
//                state exactly as a power loss there would. For rename
//                the crash fires AFTER the real rename succeeds —
//                "crash-after-rename": the file is in place but the
//                directory entry was never fsync'd.
//
// InjectedCrash deliberately does NOT derive from std::exception so no
// production catch(const std::exception&) / catch(...) cleanup path can
// misclassify it as a recoverable I/O error; only the test harness
// catches it.
#pragma once

#include <sys/types.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace btsc::io {

/// The instrumented operation sites. Counters are per-op, so a schedule
/// can target "the Nth journal append" independent of checkpoint
/// traffic.
enum class FaultOp : std::uint8_t {
  kCheckpointWrite = 0,
  kCheckpointSync,
  kCheckpointRename,
  kJournalWrite,
  kJournalSync,
};
inline constexpr std::size_t kFaultOpCount = 5;

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kEnospc,
  kShortWrite,
  kSyncFail,
  kCrash,
};

/// One schedule entry: fire `kind` when `op`'s 0-based invocation count
/// reaches `at` (exactly, or for every call >= `at` when sticky — a
/// sticky kEnospc models "the disk is full from now on").
struct FaultRule {
  FaultOp op = FaultOp::kCheckpointWrite;
  std::uint64_t at = 0;
  FaultKind kind = FaultKind::kNone;
  bool sticky = false;
};

/// Test-only crash marker. Intentionally not a std::exception (see file
/// comment). Carries the decide point for assertion messages.
struct InjectedCrash {
  FaultOp op;
  std::uint64_t at;
};

/// A deterministic fault schedule. decide() is thread-safe: counters are
/// atomic and rules are immutable after construction.
class FaultPlan {
 public:
  explicit FaultPlan(std::vector<FaultRule> rules);

  /// Bumps `op`'s counter and returns the fault (if any) scheduled for
  /// this invocation.
  FaultKind decide(FaultOp op);

  /// Invocations of `op` decided so far.
  std::uint64_t count(FaultOp op) const;

 private:
  std::vector<FaultRule> rules_;
  std::array<std::atomic<std::uint64_t>, kFaultOpCount> counts_{};
};

/// Installs `plan` process-wide (nullptr restores the no-op default).
/// The caller keeps ownership; the plan must outlive the installation.
void set_fault_plan(FaultPlan* plan);
FaultPlan* fault_plan();

/// Syscall wrappers used by the durability layer. Behave exactly like
/// the raw syscall unless an installed plan schedules a fault for this
/// invocation.
ssize_t faultable_write(FaultOp op, int fd, const void* buf, std::size_t n);
int faultable_fsync(FaultOp op, int fd);
int faultable_fdatasync(FaultOp op, int fd);
int faultable_rename(FaultOp op, const char* from, const char* to);

}  // namespace btsc::io
