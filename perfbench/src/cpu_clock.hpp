#pragma once

// CPU clocks for the end-to-end timings. On a shared host the wall clock
// of a call also counts the time its thread waited for a core (other
// guests, or more runnable threads than cores); that share swings by 2x
// from run to run. A CPU clock counts only the time the work ran, so it
// measures the program. Wall-clock figures stay in the traced run.

#include <pthread.h>
#include <time.h>

#include <stdexcept>
#include <vector>

namespace perfbench {

inline double cpuSeconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// CPU time of the calling thread.
inline double threadCpuSeconds() { return cpuSeconds(CLOCK_THREAD_CPUTIME_ID); }

/// CPU time of every thread of the process, the pool workers included.
inline double processCpuSeconds() { return cpuSeconds(CLOCK_PROCESS_CPUTIME_ID); }

/// The CPU clock of another thread of this process.
inline clockid_t cpuClockOf(pthread_t thread) {
  clockid_t c{};
  if (pthread_getcpuclockid(thread, &c) != 0) throw std::runtime_error("no thread CPU clock");
  return c;
}

/// Summed CPU time of `clocks`.
inline double cpuSecondsOf(const std::vector<clockid_t>& clocks) {
  double s = 0.0;
  for (const clockid_t c : clocks) s += cpuSeconds(c);
  return s;
}

}  // namespace perfbench
