// perfbench-spawn — runs one command and reports its exit code, wall
// time and peak resident set.
//
//   perfbench-spawn LOG COMMAND [ARGS...]
//
// Prints "<exit code> <wall seconds> <peak RSS KiB>" on stdout; the
// command's stdout and stderr go to LOG. A child's ru_maxrss also counts
// the memory of the process it was forked from (Linux carries the
// pre-exec high-water mark across exec), so measuring the CLIs from a
// large parent such as a Python interpreter would report the parent's
// size. This launcher is small, which keeps that floor near 1 MiB.
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

int main(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: perfbench-spawn LOG COMMAND [ARGS...]\n");
    return 2;
  }
  const int log = ::open(argv[1], O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log < 0) {
    std::perror(argv[1]);
    return 2;
  }
  timespec t0{}, t1{};
  ::clock_gettime(CLOCK_MONOTONIC, &t0);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 2;
  }
  if (pid == 0) {
    ::dup2(log, 1);
    ::dup2(log, 2);
    ::execv(argv[2], argv + 2);
    std::perror(argv[2]);
    ::_exit(127);
  }
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("wait4");
      return 2;
    }
  }
  ::clock_gettime(CLOCK_MONOTONIC, &t1);
  const double wall = static_cast<double>(t1.tv_sec - t0.tv_sec) +
                      static_cast<double>(t1.tv_nsec - t0.tv_nsec) / 1e9;
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::printf("%d %.9f %ld\n", code, wall, usage.ru_maxrss);
  return 0;
}
