// Runs the shipped nitro_monitor as a child process, the way a user would,
// and observes it from outside: its output lines (through a pseudo-
// terminal, so its stdio is line-buffered and each line is timestamped
// when it is printed), its peak anonymous RSS (sampled from
// /proc/<pid>/status) and its CPU time (wait4's rusage).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

struct ChildRun {
  bool exited = false;      // exited normally (not signalled or killed)
  int exit_code = -1;
  bool timed_out = false;   // killed by us after `timeout_s`
  std::uint64_t exec_ns = 0;    // steady clock just before the spawn
  std::uint64_t marker_ns = 0;  // when the first line containing `marker`
                                // was read (0 = never printed)
  std::uint64_t exit_ns = 0;    // when the child was reaped
  double cpu_s = 0.0;           // user + system
  std::uint64_t peak_anon_kib = 0;
  std::string output;           // stdout + stderr, '\r' stripped
};

/// Spawn `argv` (argv[0] is the executable path), wait for it to exit and
/// return what was observed.  The child is killed and reaped if it is
/// still running after `timeout_s`.  Throws std::runtime_error when the
/// child cannot be started.
ChildRun run_child(const std::vector<std::string>& argv, const std::string& marker,
                   double timeout_s);

/// Steady-clock nanoseconds (CLOCK_MONOTONIC, shared by every process on
/// the host — the monitor's epoch-close stamps use the same clock).
std::uint64_t now_ns();

}  // namespace e2ebench
