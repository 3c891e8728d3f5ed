#include "run_context.hpp"

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {

namespace hg = hybrid::graph;
namespace hr = hybrid::routing;
using Clock = std::chrono::steady_clock;

void RunContext::endToEnd(const std::string& name, double value, const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void RunContext::perLayer(const std::string& name, double value, const std::string& unit) {
  layer_.push_back({name, value, unit});
}

namespace {
std::string tailNote(const std::string& name, const Tail& t) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s: p%.2f of %zu samples", name.c_str(), 100.0 * t.percentile,
                t.samples);
  return buf;
}
}  // namespace

void RunContext::endToEndTail(const std::string& name, const Tail& t, const std::string& unit) {
  endToEnd(name, t.value, unit);
  note(tailNote(name, t));
}

void RunContext::perLayerTail(const std::string& name, const Tail& t, const std::string& unit) {
  perLayer(name, t.value, unit);
  note(tailNote(name, t));
}

void RunContext::note(const std::string& line) { notes_.push_back(line); }

void RunContext::attempt(long n) {
  std::lock_guard<std::mutex> lock(tallyMu_);
  attempted_ += n;
}

void RunContext::fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(tallyMu_);
  if (failed_ < 20) std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  ++failed_;
}

long RunContext::attempted() const {
  std::lock_guard<std::mutex> lock(tallyMu_);
  return attempted_;
}

long RunContext::failed() const {
  std::lock_guard<std::mutex> lock(tallyMu_);
  return failed_;
}

bool validWalk(const hr::RouteResult& r, hg::NodeId s, hg::NodeId t,
               const hg::GeometricGraph& ldel) {
  if (!r.delivered || r.path.empty() || r.path.front() != s || r.path.back() != t) return false;
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    if (!ldel.hasEdge(r.path[i - 1], r.path[i])) return false;
  }
  return true;
}

std::string pairText(const char* what, hg::NodeId s, hg::NodeId t) {
  return std::string(what) + " " + std::to_string(s) + "->" + std::to_string(t);
}

int hardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

CpuTicks cpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  // cpu user nice system idle iowait irq softirq steal ...
  double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  if (std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0], &v[1], &v[2], &v[3], &v[4],
                  &v[5], &v[6], &v[7]) == 8) {
    for (const double x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double secondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

}  // namespace perfbench
