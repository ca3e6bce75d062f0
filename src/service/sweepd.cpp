#include "service/sweepd.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "core/report.hpp"
#include "runner/scenarios.hpp"

namespace btsc::service {
namespace fs = std::filesystem;
namespace {

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw std::runtime_error("sweepd: " + what + " " + path + ": " +
                           std::strerror(errno));
}

/// Atomic durable file publication: temp + write + fsync + rename +
/// parent fsync. Existence of `path` therefore implies complete,
/// durable content — the property every recovery decision relies on.
void atomic_write_text(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_io("cannot create", tmp);
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n =
        ::write(fd, content.data() + off, content.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_io("write failed for", tmp);
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_io("fsync failed for", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_io("close failed for", tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_io("rename failed onto", path);
  }
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? std::string(".")
                                 : path.substr(0, slash == 0 ? 1 : slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kQuarantined: return "quarantined";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

SweepService::SweepService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.jobs_dir.empty()) {
    throw std::invalid_argument("sweepd: jobs_dir is required");
  }
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.checkpoint_dir.empty()) {
    cfg_.checkpoint_dir = cfg_.jobs_dir + "/checkpoints";
  }
  std::error_code ec;
  fs::create_directories(cfg_.jobs_dir, ec);
  if (ec) {
    throw std::runtime_error("sweepd: cannot create jobs dir " +
                             cfg_.jobs_dir + ": " + ec.message());
  }
  fs::create_directories(cfg_.checkpoint_dir, ec);
  if (ec) {
    std::cerr << "sweepd: cannot create checkpoint dir "
              << cfg_.checkpoint_dir << ": " << ec.message()
              << "; warm-ups stay in-memory\n";
  }
}

SweepService::~SweepService() {
  drain();
  shutdown();
}

std::string SweepService::job_path(const std::string& id) const {
  return cfg_.jobs_dir + "/" + id + ".job";
}
std::string SweepService::journal_path(const std::string& id) const {
  return cfg_.jobs_dir + "/" + id + ".journal";
}
std::string SweepService::artifact_path(const std::string& id) const {
  return cfg_.jobs_dir + "/" + id + ".json";
}

std::size_t SweepService::recover() {
  std::size_t resumed = 0;
  std::vector<fs::path> job_files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(cfg_.jobs_dir, ec)) {
    const std::string name = entry.path().filename().string();
    // Stale atomic-write temps from a crashed publication: the rename
    // never happened, so they are garbage by construction.
    if (name.find(".tmp.") != std::string::npos) {
      fs::remove(entry.path(), ec);
      continue;
    }
    if (entry.path().extension() == ".job") job_files.push_back(entry.path());
  }
  std::sort(job_files.begin(), job_files.end());

  for (const auto& path : job_files) {
    const std::string id = path.stem().string();
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    JobStatus st;
    try {
      st.spec = parse_job_line(line);
      if (st.spec.id != id) {
        throw JobError("job file " + path.string() +
                       " names id '" + st.spec.id + "'");
      }
    } catch (const JobError& e) {
      std::cerr << "sweepd: unreadable job file " << path << ": " << e.what()
                << "; marking failed\n";
      st.spec.id = id;
      st.state = JobState::kFailed;
      st.error = e.what();
      std::lock_guard<std::mutex> lock(mu_);
      jobs_.emplace(id, std::move(st));
      continue;
    }

    if (fs::exists(artifact_path(id))) {
      st.state = fs::exists(cfg_.jobs_dir + "/" + id + ".quarantine.json")
                     ? JobState::kQuarantined
                     : JobState::kDone;
    } else if (fs::exists(cfg_.jobs_dir + "/" + id + ".error.json")) {
      st.state = JobState::kFailed;
      st.error = "failed in a previous run (see " + id + ".error.json)";
    } else {
      st.state = JobState::kQueued;
      ++resumed;
    }

    std::lock_guard<std::mutex> lock(mu_);
    const bool queued = st.state == JobState::kQueued;
    jobs_.emplace(id, std::move(st));
    if (queued) queue_.push_back(id);
  }
  work_cv_.notify_all();
  return resumed;
}

void SweepService::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  pool_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int w = 0; w < cfg_.workers; ++w) {
    pool_.emplace_back(&SweepService::worker_loop, this);
  }
}

std::string SweepService::submit(const JobSpec& spec) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (drain_.load(std::memory_order_relaxed)) {
      return "service is draining; not accepting jobs";
    }
    if (jobs_.count(spec.id) != 0) {
      return "duplicate job id '" + spec.id + "'";
    }
    if (queue_.size() >= cfg_.queue_limit) {
      return "queue full (" + std::to_string(cfg_.queue_limit) +
             " jobs); retry later";
    }
  }
  if (fs::exists(artifact_path(spec.id))) {
    return "job '" + spec.id + "' already has a completed artifact";
  }
  // Durable accept: the .job file is on disk (fsync'd) before the
  // client hears "ok", so an accepted job survives any crash.
  try {
    atomic_write_text(job_path(spec.id), format_job_line(spec) + "\n");
  } catch (const std::exception& e) {
    return std::string("cannot persist job: ") + e.what();
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Re-check raced submissions of the same id between the two locks.
  if (jobs_.count(spec.id) != 0) return "duplicate job id '" + spec.id + "'";
  if (drain_.load(std::memory_order_relaxed)) {
    return "service is draining; not accepting jobs";
  }
  JobStatus st;
  st.spec = spec;
  st.state = JobState::kQueued;
  jobs_.emplace(spec.id, std::move(st));
  queue_.push_back(spec.id);
  work_cv_.notify_one();
  return "";
}

std::vector<JobStatus> SweepService::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& [id, st] : jobs_) out.push_back(st);
  return out;
}

void SweepService::drain() {
  drain_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  work_cv_.notify_all();
  idle_cv_.notify_all();
}

void SweepService::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (cfg_.terminate != nullptr &&
        cfg_.terminate->load(std::memory_order_relaxed) &&
        !drain_.load(std::memory_order_relaxed)) {
      lock.unlock();
      drain();
      lock.lock();
    }
    if (queue_.empty() && running_ == 0) return;
    if (drain_.load(std::memory_order_relaxed) && running_ == 0) return;
    idle_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

void SweepService::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    work_cv_.notify_all();
  }
  for (auto& th : pool_) {
    if (th.joinable()) th.join();
  }
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto& th : connections_) {
    if (th.joinable()) th.join();
  }
}

void SweepService::worker_loop() {
  for (;;) {
    std::string id;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stopping_ || drain_.load(std::memory_order_relaxed) ||
               !queue_.empty();
      });
      if (drain_.load(std::memory_order_relaxed)) return;
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      id = queue_.front();
      queue_.pop_front();
      auto it = jobs_.find(id);
      if (it != jobs_.end()) it->second.state = JobState::kRunning;
      ++running_;
    }
    run_job(id);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --running_;
      idle_cv_.notify_all();
    }
  }
}

void SweepService::run_job(const std::string& id) {
  JobSpec spec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spec = jobs_.at(id).spec;
  }

  // Advisory commit stream: one JSON line per durably journaled
  // replication. Line-buffered, never fsync'd — the journal is the
  // durable record, this is for live consumers (tail -f, dashboards).
  std::ofstream progress(cfg_.jobs_dir + "/" + id + ".progress.jsonl",
                         std::ios::app);

  runner::ScenarioRequest req;
  req.threads = spec.threads;
  req.replications = spec.replications;
  req.quick = spec.quick;
  req.base_seed = spec.base_seed;
  req.max_points = spec.max_points;
  req.journal_path = journal_path(id);
  req.resume = true;  // a missing journal simply starts fresh
  req.checkpoint_dir = cfg_.checkpoint_dir;
  req.rep_timeout_s = spec.rep_timeout_s;
  req.max_retries = spec.max_retries;
  req.keep_going = spec.keep_going;
  req.stop = &drain_;
  req.on_commit = [this, id, &progress](std::uint64_t point,
                                        std::uint64_t rep) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = jobs_.find(id);
      if (it != jobs_.end()) ++it->second.committed;
    }
    progress << "{\"job\": \"" << json_escape(id) << "\", \"point\": "
             << point << ", \"replication\": " << rep << "}\n";
    progress.flush();
  };

  runner::SweepResult result;
  try {
    try {
      result = runner::run_scenario(spec.scenario, req);
    } catch (const runner::JournalError& e) {
      // A journal this job cannot continue (torn header, foreign
      // configuration, poisoned). The .job spec is the durable source
      // of truth and the journal is bookkeeping, never result-defining:
      // discard it and re-run the job from scratch.
      std::cerr << "sweepd: job " << id << ": " << e.what()
                << "; discarding journal and re-running\n";
      ::unlink(journal_path(id).c_str());
      result = runner::run_scenario(spec.scenario, req);
    }
  } catch (const std::exception& e) {
    std::cerr << "sweepd: job " << id << " failed: " << e.what() << "\n";
    try {
      atomic_write_text(cfg_.jobs_dir + "/" + id + ".error.json",
                        "{\"job\": \"" + json_escape(id) +
                            "\", \"error\": \"" + json_escape(e.what()) +
                            "\"}\n");
    } catch (const std::exception& write_err) {
      std::cerr << "sweepd: job " << id
                << ": cannot record failure: " << write_err.what() << "\n";
    }
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      it->second.state = JobState::kFailed;
      it->second.error = e.what();
    }
    return;
  }

  if (result.interrupted) {
    // Drained mid-job: committed replications are in the journal; the
    // next service start resumes from them. No artifact — its absence
    // is what marks the job incomplete.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      it->second.state = JobState::kQueued;
      it->second.resumed = result.journal_skipped;
    }
    return;
  }

  try {
    // Identical bytes to `btsc-sweep --scenario <x> --json --out <f>`:
    // same reporter, same %.17g doubles — which is what lets the kill
    // matrix byte-compare service artifacts against uninterrupted runs.
    std::ostringstream artifact;
    core::JsonReporter reporter(artifact);
    runner::write_result(result, reporter);
    if (result.supervised && !result.quarantined.empty()) {
      atomic_write_text(cfg_.jobs_dir + "/" + id + ".quarantine.json",
                        runner::quarantine_report(result));
    }
    atomic_write_text(artifact_path(id), artifact.str());
  } catch (const std::exception& e) {
    std::cerr << "sweepd: job " << id
              << ": artifact write failed: " << e.what() << "\n";
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      it->second.state = JobState::kFailed;
      it->second.error = e.what();
    }
    return;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      it->second.state = (result.supervised && !result.quarantined.empty())
                             ? JobState::kQuarantined
                             : JobState::kDone;
      it->second.resumed = result.journal_skipped;
      it->second.wall_s = result.wall_seconds;
    }
  }
  enforce_cache_budget();
}

std::size_t SweepService::enforce_cache_budget() {
  if (cfg_.cache_budget_bytes == 0) return 0;
  struct Entry {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t size = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(cfg_.checkpoint_dir, ec)) {
    if (e.path().extension() != ".ckpt") continue;
    std::error_code sec;
    const auto size = fs::file_size(e.path(), sec);
    if (sec) continue;
    const auto mtime = fs::last_write_time(e.path(), sec);
    if (sec) continue;
    entries.push_back({e.path(), mtime, size});
    total += size;
  }
  if (total <= cfg_.cache_budget_bytes) return 0;
  // Evict least-recently used first (try_load touches mtime on hits).
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.mtime < b.mtime; });
  std::size_t evicted = 0;
  for (const Entry& e : entries) {
    if (total <= cfg_.cache_budget_bytes) break;
    std::error_code rec;
    if (fs::remove(e.path, rec)) {
      total -= e.size;
      ++evicted;
    }
  }
  return evicted;
}

// ---- socket front end ------------------------------------------------------

std::string SweepService::handle_request_line(const std::string& line) {
  try {
    const JsonObject obj = parse_json_object(line);
    std::string op = "submit";
    if (const auto it = obj.find("op"); it != obj.end()) {
      op = it->second.as_string("op");
    }
    if (op == "ping") return "{\"ok\": true}";
    if (op == "drain") {
      drain();
      return "{\"ok\": true, \"draining\": true}";
    }
    if (op == "status") {
      std::ostringstream out;
      out << "{\"ok\": true, \"draining\": "
          << (draining() ? "true" : "false") << ", \"jobs\": [";
      bool first = true;
      for (const JobStatus& st : status()) {
        if (!first) out << ", ";
        first = false;
        out << "{\"id\": \"" << json_escape(st.spec.id) << "\", \"state\": \""
            << job_state_name(st.state) << "\", \"committed\": "
            << st.committed << ", \"resumed\": " << st.resumed;
        if (!st.error.empty()) {
          out << ", \"error\": \"" << json_escape(st.error) << "\"";
        }
        out << "}";
      }
      out << "]}";
      return out.str();
    }
    if (op == "submit") {
      const JobSpec spec = job_from_json(obj, "op");
      const std::string err = submit(spec);
      if (!err.empty()) {
        return "{\"ok\": false, \"error\": \"" + json_escape(err) + "\"}";
      }
      return "{\"ok\": true, \"id\": \"" + json_escape(spec.id) + "\"}";
    }
    return "{\"ok\": false, \"error\": \"unknown op '" + json_escape(op) +
           "'\"}";
  } catch (const JobError& e) {
    return "{\"ok\": false, \"error\": \"" + json_escape(e.what()) + "\"}";
  }
}

void SweepService::serve_connection(int fd) {
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t nl;
    while ((nl = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.empty()) continue;
      const std::string reply = handle_request_line(line) + "\n";
      std::size_t off = 0;
      while (off < reply.size()) {
        const ssize_t w = ::write(fd, reply.data() + off, reply.size() - off);
        if (w < 0) {
          if (errno == EINTR) continue;
          ::close(fd);
          return;
        }
        off += static_cast<std::size_t>(w);
      }
    }
  }
  ::close(fd);
}

void SweepService::serve(const std::string& socket_path) {
  if (socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::invalid_argument("sweepd: socket path too long: " +
                                socket_path);
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) throw_io("cannot create socket", socket_path);
  ::unlink(socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listener);
    throw_io("cannot bind", socket_path);
  }
  if (::listen(listener, 16) != 0) {
    ::close(listener);
    throw_io("cannot listen on", socket_path);
  }

  for (;;) {
    if (cfg_.terminate != nullptr &&
        cfg_.terminate->load(std::memory_order_relaxed)) {
      drain();
    }
    if (draining()) break;
    pollfd pfd{listener, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) continue;
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.emplace_back(&SweepService::serve_connection, this, conn);
  }
  ::close(listener);
  ::unlink(socket_path.c_str());
}

}  // namespace btsc::service
