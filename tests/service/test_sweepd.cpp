// Sweep service: the line-JSON job codec (reject-with-reason protocol),
// in-process SweepService lifecycle — submit/run/status, backpressure,
// drain, directory-scan recovery — and the Unix-socket front end. The
// load-bearing assertion: a service job's artifact is byte-identical to
// running the scenario directly, also when jobs run concurrently.
#include "service/sweepd.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/report.hpp"
#include "runner/scenarios.hpp"
#include "service/job.hpp"

namespace btsc::service {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path(testing::TempDir() + name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

// ---- job codec -------------------------------------------------------------

TEST(JobCodecTest, FormatParseRoundTrip) {
  JobSpec spec;
  spec.id = "fig08-night.run_1";
  spec.scenario = "fig08";
  spec.threads = 4;
  spec.replications = 12;
  spec.quick = true;
  spec.base_seed = 0xFFFFFFFFFFFFFFFFull;  // must survive without a double
  spec.max_points = 3;
  spec.rep_timeout_s = 2.5;
  spec.max_retries = 2;
  spec.keep_going = true;
  EXPECT_EQ(parse_job_line(format_job_line(spec)), spec);
}

TEST(JobCodecTest, MinimalLineGetsDefaults) {
  const JobSpec spec =
      parse_job_line(R"({"id": "a", "scenario": "fig08"})");
  EXPECT_EQ(spec.id, "a");
  EXPECT_EQ(spec.scenario, "fig08");
  EXPECT_EQ(spec.threads, 1);
  EXPECT_EQ(spec.replications, 0);
  EXPECT_FALSE(spec.quick);
  EXPECT_FALSE(spec.keep_going);
}

TEST(JobCodecTest, RejectsBadLines) {
  const char* bad[] = {
      R"({"scenario": "fig08"})",                      // missing id
      R"({"id": "a"})",                                // missing scenario
      R"({"id": "a/b", "scenario": "fig08"})",         // id charset
      R"({"id": "", "scenario": "fig08"})",            // empty id
      R"({"id": "a", "scenario": "fig08", "x": 1})",   // unknown key
      R"({"id": "a", "scenario": "fig08", "threads": {"n": 1}})",  // nested
      R"({"id": "a", "id": "b", "scenario": "fig08"})",  // duplicate key
      R"({"id": "a", "scenario": "fig08"} trailing)",    // trailing bytes
      R"({"id": "a", "scenario": "fig08", "warmup": "warm"})",  // unknown key
      R"({"id": "a", "scenario": "fig08", "threads": -1})",     // negative
      R"(not json at all)",
      R"([])",
  };
  for (const char* line : bad) {
    EXPECT_THROW(parse_job_line(line), JobError) << line;
  }
  // A 65-char id exceeds the 64-char cap.
  EXPECT_THROW(parse_job_line("{\"id\": \"" + std::string(65, 'x') +
                              "\", \"scenario\": \"fig08\"}"),
               JobError);
}

TEST(JobCodecTest, ErrorsCarryAPresentableReason) {
  try {
    parse_job_line(R"({"id": "a", "scenario": "fig08", "bogus": 1})");
    FAIL() << "unknown key accepted";
  } catch (const JobError& e) {
    EXPECT_NE(std::string(e.what()).find("bogus"), std::string::npos);
  }
}

// ---- service lifecycle -----------------------------------------------------

JobSpec quick_job(const std::string& id) {
  JobSpec spec;
  spec.id = id;
  spec.scenario = "fig08";
  spec.threads = 1;
  spec.quick = true;
  spec.max_points = 1;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Reference artifact: the same sweep through the plain scenario path (no
// journal, no service) and the same JSON reporter.
std::string direct_artifact(const JobSpec& spec) {
  runner::ScenarioRequest req;
  req.threads = spec.threads;
  req.quick = spec.quick;
  req.max_points = spec.max_points;
  std::ostringstream out;
  core::JsonReporter reporter(out);
  runner::write_result(runner::run_scenario(spec.scenario, req), reporter);
  return out.str();
}

TEST(SweepServiceTest, JobArtifactMatchesDirectScenarioRun) {
  TempDir dir("sweepd-match");
  ServiceConfig cfg;
  cfg.jobs_dir = dir.path;
  SweepService svc(cfg);
  svc.start();
  EXPECT_EQ(svc.submit(quick_job("match")), "");
  svc.wait_idle();

  const auto statuses = svc.status();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, JobState::kDone);
  EXPECT_GT(statuses[0].committed, 0u);

  EXPECT_EQ(read_file(svc.artifact_path("match")),
            direct_artifact(quick_job("match")));
}

// Two identical jobs on two workers run their sweeps in one process at
// the same time; neither artifact may depend on the other job's
// simulations.
TEST(SweepServiceTest, ConcurrentJobsMatchDirectScenarioRun) {
  const std::string expect = direct_artifact(quick_job("ref"));
  TempDir dir("sweepd-concurrent");
  ServiceConfig cfg;
  cfg.jobs_dir = dir.path;
  cfg.workers = 2;
  SweepService svc(cfg);
  EXPECT_EQ(svc.submit(quick_job("twin-a")), "");
  EXPECT_EQ(svc.submit(quick_job("twin-b")), "");
  svc.start();
  svc.wait_idle();

  for (const auto& st : svc.status()) {
    EXPECT_EQ(st.state, JobState::kDone) << st.spec.id;
  }
  EXPECT_EQ(read_file(svc.artifact_path("twin-a")), expect);
  EXPECT_EQ(read_file(svc.artifact_path("twin-b")), expect);
}

TEST(SweepServiceTest, DuplicateAndUnknownScenarioRejections) {
  TempDir dir("sweepd-reject");
  ServiceConfig cfg;
  cfg.jobs_dir = dir.path;
  SweepService svc(cfg);
  EXPECT_EQ(svc.submit(quick_job("dup")), "");
  EXPECT_NE(svc.submit(quick_job("dup")).find("duplicate"),
            std::string::npos);
  // Unknown scenarios pass spec validation (the registry is checked at
  // run time) and land as a terminal per-job failure with an error file.
  JobSpec bogus = quick_job("bogus");
  bogus.scenario = "fig99";
  EXPECT_EQ(svc.submit(bogus), "");
  svc.start();
  svc.wait_idle();
  for (const auto& st : svc.status()) {
    if (st.spec.id == "bogus") {
      EXPECT_EQ(st.state, JobState::kFailed);
      EXPECT_FALSE(st.error.empty());
    }
  }
  EXPECT_TRUE(fs::exists(dir.path + "/bogus.error.json"));
  EXPECT_FALSE(fs::exists(svc.artifact_path("bogus")));
}

TEST(SweepServiceTest, QueueFullIsRejectedWithReason) {
  TempDir dir("sweepd-full");
  ServiceConfig cfg;
  cfg.jobs_dir = dir.path;
  cfg.queue_limit = 2;
  SweepService svc(cfg);  // never started: jobs stay queued
  EXPECT_EQ(svc.submit(quick_job("q1")), "");
  EXPECT_EQ(svc.submit(quick_job("q2")), "");
  const std::string err = svc.submit(quick_job("q3"));
  EXPECT_NE(err.find("queue full"), std::string::npos);
  // The rejected job left no durable residue to resurrect on recovery.
  EXPECT_FALSE(fs::exists(dir.path + "/q3.job"));
}

TEST(SweepServiceTest, DrainRejectsNewSubmissions) {
  TempDir dir("sweepd-drain");
  ServiceConfig cfg;
  cfg.jobs_dir = dir.path;
  SweepService svc(cfg);
  svc.drain();
  EXPECT_NE(svc.submit(quick_job("late")).find("draining"),
            std::string::npos);
}

TEST(SweepServiceTest, RecoverRequeuesIncompleteAndRegistersFinished) {
  TempDir dir("sweepd-recover");
  ServiceConfig cfg;
  cfg.jobs_dir = dir.path;
  {
    // Accept a job durably but never run it (the service "crashes"
    // before its worker pool starts).
    SweepService svc(cfg);
    EXPECT_EQ(svc.submit(quick_job("resume-me")), "");
  }
  {
    SweepService svc(cfg);
    EXPECT_EQ(svc.recover(), 1u);
    svc.start();
    svc.wait_idle();
    EXPECT_TRUE(fs::exists(svc.artifact_path("resume-me")));
  }
  // A third start finds the artifact: nothing to re-run, job reported
  // done. The artifact's existence IS the completeness marker.
  SweepService svc(cfg);
  EXPECT_EQ(svc.recover(), 0u);
  const auto statuses = svc.status();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, JobState::kDone);
  // And a fresh submit of the same id is refused — a completed artifact
  // must never be silently overwritten.
  EXPECT_NE(svc.submit(quick_job("resume-me")).find("duplicate"),
            std::string::npos);
}

TEST(SweepServiceTest, RecoverMarksCorruptJobFileFailed) {
  TempDir dir("sweepd-corrupt");
  std::ofstream(dir.path + "/broken.job") << "{not json\n";
  ServiceConfig cfg;
  cfg.jobs_dir = dir.path;
  SweepService svc(cfg);
  EXPECT_EQ(svc.recover(), 0u);  // never re-enqueued
  const auto statuses = svc.status();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].state, JobState::kFailed);
}

TEST(SweepServiceTest, RecoverSweepsStaleAtomicWriteTemps) {
  TempDir dir("sweepd-temps");
  std::ofstream(dir.path + "/x.json.tmp.12345") << "partial";
  ServiceConfig cfg;
  cfg.jobs_dir = dir.path;
  SweepService svc(cfg);
  EXPECT_EQ(svc.recover(), 0u);
  EXPECT_FALSE(fs::exists(dir.path + "/x.json.tmp.12345"));
}

// ---- socket front end ------------------------------------------------------

// Minimal line-oriented client over the service's AF_UNIX socket.
struct SocketClient {
  explicit SocketClient(const std::string& path) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    // The server binds asynchronously; retry briefly.
    for (int i = 0; i < 100; ++i) {
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        return;
      }
      ::usleep(20000);
    }
    ADD_FAILURE() << "cannot connect to " << path;
  }
  ~SocketClient() {
    if (fd >= 0) ::close(fd);
  }
  std::string request(const std::string& line) {
    const std::string out = line + "\n";
    EXPECT_EQ(::write(fd, out.data(), out.size()),
              static_cast<ssize_t>(out.size()));
    std::string reply;
    char c = 0;
    while (::read(fd, &c, 1) == 1 && c != '\n') reply.push_back(c);
    return reply;
  }
  int fd = -1;
};

TEST(SweepServiceTest, SocketSubmitStatusDrainRoundTrip) {
  TempDir dir("sweepd-socket");
  // Socket paths are length-limited (sun_path); keep it short.
  const std::string sock = "/tmp/btsc-sweepd-test-" +
                           std::to_string(::getpid()) + ".sock";
  ServiceConfig cfg;
  cfg.jobs_dir = dir.path;
  SweepService svc(cfg);
  svc.start();
  std::thread server([&] { svc.serve(sock); });

  {
    SocketClient client(sock);
    EXPECT_EQ(client.request(R"({"op": "ping"})"), R"({"ok": true})");
    // Default op is submit.
    EXPECT_EQ(client.request(
                  R"({"id": "s1", "scenario": "fig08", "quick": true, )"
                  R"("max_points": 1})"),
              R"({"ok": true, "id": "s1"})");
    // A malformed line is a reply, not a dropped connection.
    const std::string err = client.request(R"({"id": "s1"})");
    EXPECT_NE(err.find("\"ok\": false"), std::string::npos);
    svc.wait_idle();
    const std::string status = client.request(R"({"op": "status"})");
    EXPECT_NE(status.find("\"id\": \"s1\""), std::string::npos);
    EXPECT_NE(status.find("\"state\": \"done\""), std::string::npos);
    const std::string drained = client.request(R"({"op": "drain"})");
    EXPECT_NE(drained.find("\"draining\": true"), std::string::npos);
  }
  server.join();  // drain terminates the accept loop
  svc.shutdown();
  EXPECT_TRUE(fs::exists(svc.artifact_path("s1")));
  EXPECT_FALSE(fs::exists(sock));  // listener cleaned up after itself
  ::unlink(sock.c_str());
}

}  // namespace
}  // namespace btsc::service
