#pragma once

// State shared by the phases of one benchmark run: the workload, the
// tracer, the metrics gathered so far and the correctness tally.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/route_service.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class RunContext {
 public:
  RunContext(WorkloadSpec spec, std::uint64_t seed, bool trace)
      : spec(std::move(spec)), seed(seed), tracer(trace), untraced(false) {}

  const WorkloadSpec spec;
  const std::uint64_t seed;
  Tracer tracer;
  Tracer untraced;  ///< Times without recording, for the traced run's control reader.

  bool tracing() const { return tracer.enabled(); }

  void endToEnd(const std::string& name, double value, const std::string& unit);
  void perLayer(const std::string& name, double value, const std::string& unit);
  /// A tail metric, with the percentile it really is and its sample count
  /// noted beside the value.
  void endToEndTail(const std::string& name, const Tail& t, const std::string& unit);
  void perLayerTail(const std::string& name, const Tail& t, const std::string& unit);
  void note(const std::string& line);

  /// Correctness tally. Safe from any thread.
  void attempt(long n = 1);
  void fail(const std::string& why);

  const std::vector<Metric>& endToEndMetrics() const { return e2e_; }
  const std::vector<Metric>& perLayerMetrics() const { return layer_; }
  const std::vector<std::string>& notes() const { return notes_; }
  long attempted() const;
  long failed() const;

 private:
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
  std::vector<std::string> notes_;
  mutable std::mutex tallyMu_;  ///< Guards attempted_, failed_ and failure output.
  long attempted_ = 0;
  long failed_ = 0;
};

/// True when `r` is a delivered walk from s to t along edges of `ldel`.
bool validWalk(const hybrid::routing::RouteResult& r, hybrid::graph::NodeId s,
               hybrid::graph::NodeId t, const hybrid::graph::GeometricGraph& ldel);

/// "<what> s->t", for failure messages.
std::string pairText(const char* what, hybrid::graph::NodeId s, hybrid::graph::NodeId t);

/// Seconds since `from`.
double secondsSince(std::chrono::steady_clock::time_point from);

int hardwareThreads();

/// Machine-wide CPU time from /proc/stat, in clock ticks: all states, and
/// the share a hypervisor gave to other guests (steal). Zeros where the
/// file is missing.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
};
CpuTicks cpuTicks();

}  // namespace perfbench
