#include "proc.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <termios.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "stats.hpp"

extern char** environ;

namespace e2ebench {

std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

namespace {

std::string read_small_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return {};
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

/// Pseudo-terminal pair; the child writes to `slave`, we read `master`.
struct Pty {
  int master = -1;
  int slave = -1;

  Pty() {
    master = ::posix_openpt(O_RDWR | O_NOCTTY | O_CLOEXEC);
    if (master < 0 || ::grantpt(master) != 0 || ::unlockpt(master) != 0) {
      close_all();
      throw std::runtime_error("cannot allocate a pseudo-terminal");
    }
    char name[128];
    if (::ptsname_r(master, name, sizeof name) != 0) {
      close_all();
      throw std::runtime_error("ptsname failed");
    }
    slave = ::open(name, O_RDWR | O_NOCTTY | O_CLOEXEC);
    if (slave < 0) {
      close_all();
      throw std::runtime_error("cannot open pseudo-terminal slave");
    }
    // Raw mode: no echo, no "\n" -> "\r\n" translation.
    termios t{};
    if (::tcgetattr(slave, &t) == 0) {
      ::cfmakeraw(&t);
      ::tcsetattr(slave, TCSANOW, &t);
    }
  }
  ~Pty() { close_all(); }
  Pty(const Pty&) = delete;
  Pty& operator=(const Pty&) = delete;

  void close_slave() {
    if (slave >= 0) ::close(slave);
    slave = -1;
  }
  void close_all() {
    close_slave();
    if (master >= 0) ::close(master);
    master = -1;
  }
};

}  // namespace

ChildRun run_child(const std::vector<std::string>& argv, const std::string& marker,
                   double timeout_s) {
  if (argv.empty()) throw std::runtime_error("run_child: empty argv");
  Pty pty;

  posix_spawn_file_actions_t fa;
  ::posix_spawn_file_actions_init(&fa);
  ::posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  ::posix_spawn_file_actions_adddup2(&fa, pty.slave, 1);
  ::posix_spawn_file_actions_adddup2(&fa, pty.slave, 2);
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);

  ChildRun run;
  pid_t pid = -1;
  run.exec_ns = now_ns();
  const int rc = ::posix_spawn(&pid, argv[0].c_str(), &fa, nullptr, args.data(), environ);
  ::posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " + std::strerror(rc));
  }
  pty.close_slave();

  const std::uint64_t deadline =
      run.exec_ns + static_cast<std::uint64_t>(timeout_s * 1e9);
  const std::string status_path = "/proc/" + std::to_string(pid) + "/status";
  constexpr std::uint64_t kSampleEveryNs = 2'000'000;
  std::uint64_t next_sample = 0;
  std::string pending;
  auto sample_rss = [&](std::uint64_t t) {
    if (t < next_sample) return;
    next_sample = t + kSampleEveryNs;
    if (const auto kib = parse_rss_anon_kib(read_small_file(status_path))) {
      if (*kib > run.peak_anon_kib) run.peak_anon_kib = *kib;
    }
  };

  // Read until the child closes the terminal (read -> EIO/0) or the
  // deadline passes.
  bool open_end = true;
  while (open_end) {
    pollfd p{pty.master, POLLIN, 0};
    const int r = ::poll(&p, 1, 2);
    const std::uint64_t t = now_ns();
    sample_rss(t);
    if (r > 0) {
      char buf[8192];
      const ssize_t n = ::read(pty.master, buf, sizeof buf);
      if (n > 0) {
        pending.append(buf, static_cast<std::size_t>(n));
        std::size_t nl;
        while ((nl = pending.find('\n')) != std::string::npos) {
          std::string line = pending.substr(0, nl);
          pending.erase(0, nl + 1);
          if (!line.empty() && line.back() == '\r') line.pop_back();
          if (run.marker_ns == 0 && line.find(marker) != std::string::npos) {
            run.marker_ns = t;
          }
          run.output += line;
          run.output += '\n';
        }
      } else if (n == 0 || errno != EINTR) {
        open_end = false;  // EIO: every slave descriptor is closed
      }
    }
    if (t > deadline) {
      ::kill(pid, SIGKILL);
      run.timed_out = true;
      open_end = false;
    }
  }
  run.output += pending;

  // Reap.  The terminal closed, so the child is exiting; still bound the
  // wait by the deadline.
  int status = 0;
  rusage ru{};
  for (;;) {
    const pid_t w = ::wait4(pid, &status, WNOHANG, &ru);
    if (w == pid) break;
    if (w < 0 && errno != EINTR) break;
    if (now_ns() > deadline && !run.timed_out) {
      ::kill(pid, SIGKILL);
      run.timed_out = true;
    }
    sample_rss(now_ns());
    ::usleep(200);
  }
  run.exit_ns = now_ns();
  run.exited = WIFEXITED(status) && !run.timed_out;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  return run;
}

}  // namespace e2ebench
