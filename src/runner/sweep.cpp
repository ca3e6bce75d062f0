#include "runner/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>

namespace btsc::runner {

int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  if (requested < 0) {
    throw std::invalid_argument(
        "thread count must be >= 0 (0 = hardware concurrency)");
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace detail {

void run_task_grid(std::size_t total, int threads,
                   const std::function<void(std::size_t)>& task,
                   const std::atomic<bool>* stop) {
  if (total == 0) return;
  // A worker beyond the task count would only start and exit.
  threads = static_cast<int>(
      std::min(total, static_cast<std::size_t>(std::max(threads, 1))));

  const auto stopping = [stop] {
    return stop != nullptr && stop->load(std::memory_order_relaxed);
  };

  if (threads <= 1) {
    for (std::size_t i = 0; i < total; ++i) {
      if (stopping()) return;
      task(i);
    }
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  auto worker = [&] {
    while (!failed.load(std::memory_order_relaxed) && !stopping()) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= total) return;
      try {
        task(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };

  // The calling thread works too, so `threads` is the total parallelism.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads - 1));
  try {
    for (int t = 0; t < threads - 1; ++t) pool.emplace_back(worker);
  } catch (...) {
    // Thread creation failed mid-spawn (resource exhaustion): stop the
    // workers that did start and join them before surfacing the error,
    // or ~thread on a joinable thread would call std::terminate.
    failed.store(true, std::memory_order_relaxed);
    for (auto& th : pool) th.join();
    throw;
  }
  worker();
  for (auto& th : pool) th.join();

  if (first_error) std::rethrow_exception(first_error);
}

// ---- supervised execution --------------------------------------------------

namespace {

using Clock = std::chrono::steady_clock;

/// State shared between the supervisor (calling thread), its workers,
/// and any abandoned worker that outlives the grid run. Heap-owned via
/// shared_ptr so nothing dangles no matter who exits last. All per-task
/// bookkeeping is guarded by `mu`; `next` alone is lock-free.
struct SupShared {
  enum class St : std::uint8_t { kPending, kRunning, kDone, kFailed,
                                 kAbandoned };

  explicit SupShared(std::size_t n, SupervisorConfig c)
      : total(n), cfg(c), state(n, St::kPending), start(n), attempts(n, 0),
        worker_of(n, 0), cancel(n) {}

  const std::size_t total;
  const SupervisorConfig cfg;
  std::function<void(std::size_t, CommitToken&)> task;

  std::atomic<std::size_t> next{0};

  std::mutex mu;
  std::condition_variable cv;  // signalled on every settle
  std::vector<St> state;
  std::vector<Clock::time_point> start;
  std::vector<int> attempts;
  std::vector<std::size_t> worker_of;
  // Per-task cancellation flags. deque: element addresses are stable and
  // atomics need no move construction.
  std::deque<std::atomic<bool>> cancel;
  std::vector<TaskFailure> failures;
  std::size_t settled = 0;  // kDone + kFailed + kAbandoned
};

void settle_locked(SupShared& sh) {
  ++sh.settled;
  sh.cv.notify_one();
}

/// Worker loop: pull tasks from the shared counter, retry throwing
/// attempts with exponential backoff, and exit immediately if the
/// supervisor abandoned the current task (a replacement worker has
/// already been spawned — continuing would double the pool).
bool sup_stopping(const SupShared& sh) {
  return sh.cfg.stop != nullptr &&
         sh.cfg.stop->load(std::memory_order_relaxed);
}

void supervised_worker(const std::shared_ptr<SupShared>& sh,
                       std::size_t worker_id) {
  for (;;) {
    if (sup_stopping(*sh)) return;
    const std::size_t i = sh->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= sh->total) return;

    int attempt = 0;
    std::string last_error;
    for (;;) {
      ++attempt;
      {
        std::lock_guard<std::mutex> lock(sh->mu);
        sh->state[i] = SupShared::St::kRunning;
        sh->start[i] = Clock::now();
        sh->attempts[i] = attempt;
        sh->worker_of[i] = worker_id;
      }
      CommitToken token(sh.get(), i, &sh->cancel[i]);
      bool threw = false;
      try {
        sh->task(i, token);
      } catch (const std::exception& e) {
        threw = true;
        last_error = e.what();
      } catch (...) {
        threw = true;
        last_error = "unknown error";
      }

      std::unique_lock<std::mutex> lock(sh->mu);
      if (sh->state[i] == SupShared::St::kAbandoned) {
        // The supervisor gave this task (and this thread) up while the
        // attempt ran; it already quarantined the task and spawned a
        // replacement. Nothing left for this thread to do.
        return;
      }
      if (!threw) {
        if (sh->state[i] == SupShared::St::kRunning) {
          // The task returned without committing a result (nothing to
          // publish); still settles.
          sh->state[i] = SupShared::St::kDone;
          settle_locked(*sh);
        }
        break;
      }
      if (attempt <= sh->cfg.max_retries) {
        sh->state[i] = SupShared::St::kPending;
        lock.unlock();
        // Exponential backoff, chunked so an abandon lands promptly.
        double wait_ms =
            sh->cfg.retry_backoff_ms * static_cast<double>(1 << (attempt - 1));
        wait_ms = std::min(wait_ms, 10'000.0);
        const auto until =
            Clock::now() + std::chrono::duration<double, std::milli>(wait_ms);
        while (Clock::now() < until &&
               !sh->cancel[i].load(std::memory_order_relaxed)) {
          // A drain aborts the backoff: the task stays kPending and
          // unsettled; a resumed run simply retries it from scratch.
          if (sup_stopping(*sh)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (sup_stopping(*sh)) return;
        continue;
      }
      sh->state[i] = SupShared::St::kFailed;
      sh->failures.push_back({i, last_error, attempt, false});
      settle_locked(*sh);
      break;
    }
  }
}

}  // namespace

bool CommitToken::commit(const std::function<void()>& publish) {
  auto* sh = static_cast<SupShared*>(shared_);
  std::lock_guard<std::mutex> lock(sh->mu);
  if (sh->state[index_] == SupShared::St::kAbandoned) return false;
  publish();
  sh->state[index_] = SupShared::St::kDone;
  settle_locked(*sh);
  return true;
}

void run_supervised_grid(std::size_t total, const SupervisorConfig& cfg,
                         const std::function<void(std::size_t, CommitToken&)>&
                             attempt,
                         std::vector<TaskFailure>& failures) {
  if (total == 0) return;

  auto sh = std::make_shared<SupShared>(total, cfg);
  sh->task = attempt;

  const int workers = static_cast<int>(
      std::min(total, static_cast<std::size_t>(std::max(cfg.threads, 1))));
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  try {
    for (int w = 0; w < workers; ++w) {
      pool.emplace_back(supervised_worker, sh,
                        static_cast<std::size_t>(pool.size()));
    }
  } catch (...) {
    // Thread creation failed mid-spawn: drain the counter so started
    // workers exit, join them, then surface the error.
    sh->next.store(sh->total, std::memory_order_relaxed);
    for (auto& th : pool) th.join();
    throw;
  }

  const bool watchdog = cfg.rep_timeout_s > 0.0;
  const auto deadline =
      std::chrono::duration<double>(watchdog ? cfg.rep_timeout_s : 0.0);
  {
    std::unique_lock<std::mutex> lock(sh->mu);
    while (sh->settled < sh->total) {
      if (sup_stopping(*sh)) {
        // Drain: let running attempts finish (they still commit and
        // journal), but stop waiting on tasks no worker will ever claim.
        bool any_running = false;
        for (std::size_t i = 0; i < sh->total; ++i) {
          if (sh->state[i] == SupShared::St::kRunning) {
            any_running = true;
            break;
          }
        }
        if (!any_running) break;
      }
      if (!watchdog) {
        // A bounded wait (instead of a bare cv.wait) keeps the drain
        // check live even when no settle ever arrives.
        if (cfg.stop != nullptr) {
          sh->cv.wait_for(lock, std::chrono::milliseconds(10));
        } else {
          sh->cv.wait(lock);
        }
        continue;
      }
      sh->cv.wait_for(lock, std::chrono::milliseconds(2));
      const auto now = Clock::now();
      for (std::size_t i = 0; i < sh->total; ++i) {
        if (sh->state[i] != SupShared::St::kRunning) continue;
        if (now - sh->start[i] < deadline) continue;
        // Deadline overrun: abandon the attempt. The cancel flag asks
        // the body to exit cooperatively; whether or not it does, the
        // commit fence guarantees its result is discarded. The hung
        // worker's thread is detached (it may never return) and a
        // replacement keeps the pool at full strength.
        sh->state[i] = SupShared::St::kAbandoned;
        sh->cancel[i].store(true, std::memory_order_relaxed);
        sh->failures.push_back(
            {i,
             "replication deadline exceeded (" +
                 std::to_string(cfg.rep_timeout_s) + " s)",
             sh->attempts[i], true});
        settle_locked(*sh);
        const std::size_t wid = sh->worker_of[i];
        pool[wid].detach();
        pool.emplace_back(supervised_worker, sh,
                          static_cast<std::size_t>(pool.size()));
      }
    }
  }

  for (auto& th : pool) {
    if (th.joinable()) th.join();
  }

  {
    std::lock_guard<std::mutex> lock(sh->mu);
    failures = sh->failures;
  }
  std::sort(failures.begin(), failures.end(),
            [](const TaskFailure& a, const TaskFailure& b) {
              return a.index < b.index;
            });
}

}  // namespace detail
}  // namespace btsc::runner
