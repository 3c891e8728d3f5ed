// Self-tests of the benchmark's own accounting: the tail-percentile rule,
// open-loop lag accounting against a synthetic stalled updater, and span
// self time. Exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "open_loop.hpp"
#include "stats.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b, double eps = 1e-9) { return std::fabs(a - b) <= eps; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentileRule() {
  // 1000 samples: the true p99 (value 990) has exactly 10 samples above it.
  const Tail a = tail(ramp(1000), 0.99);
  check(near(a.value, 990.0) && near(a.percentile, 0.99) && a.samples == 1000,
        "p99 of 1000 samples is the 990th value");
  // 500 samples: p99 would leave 5 above, so the rule lowers it to p98.
  const Tail b = tail(ramp(500), 0.99);
  check(near(b.value, 490.0) && near(b.percentile, 0.98), "p99 of 500 samples drops to p98");
  // 200 samples at p95: exactly 10 above, kept.
  const Tail c = tail(ramp(200), 0.95);
  check(near(c.value, 190.0) && near(c.percentile, 0.95), "p95 of 200 samples is kept");
  // 15 samples: no percentile above the median has 10 samples beyond.
  const Tail d = tail(ramp(15), 0.99);
  check(near(d.value, 8.0), "tail of 15 samples degrades to the median");
  check(tail({}, 0.99).samples == 0 && near(tail({}, 0.99).value, 0.0), "empty tail is zero");
  check(near(median(ramp(4)), 2.5) && near(median(ramp(5)), 3.0), "median of even and odd");
}

/// Simulates an updater that needs `serviceS` per batch against arrivals at
/// `rate`; returns hand-over and publication times per batch.
void simulateUpdater(std::size_t batches, double rate, double serviceS, double stallEveryS,
                     std::vector<double>& handed, std::vector<double>& published) {
  handed.clear();
  published.clear();
  double free = 0.0;
  for (std::size_t k = 0; k < batches; ++k) {
    const double due = batchDue(k, 8, rate);
    handed.push_back(due);
    double start = std::max(due, free);
    // A stall of one second every `stallEveryS` of schedule time.
    if (stallEveryS > 0.0 && std::floor(start / stallEveryS) != std::floor(free / stallEveryS)) {
      start += 1.0;
    }
    free = start + serviceS;
    published.push_back(free);
  }
}

void lagAccounting() {
  std::vector<double> handed, published;
  // Keeps up: 40 ms per batch against a batch every 80 ms.
  simulateUpdater(200, 100.0, 0.040, 0.0, handed, published);
  const auto fast = accountOpenLoop(handed, published, 8, 100.0);
  check(fast.lagMs.size() == 1600, "one lag per update");
  check(!fast.backlogGrowing, "an updater that keeps up has no growing backlog");
  // The last update of a batch waits only for the swap; the first also
  // waited for the batch to fill (7 intervals of 10 ms).
  check(near(fast.lagMs[7], 40.0, 1e-6) && near(fast.lagMs[0], 110.0, 1e-6),
        "lag is measured from each update's due time");
  check(near(tail(fast.generatorLateMs, 0.99).value, 0.0, 1e-9),
        "an on-time generator is never late");

  // Stalled: 120 ms per batch, so the queue grows by 40 ms every batch.
  simulateUpdater(200, 100.0, 0.120, 0.0, handed, published);
  const auto slow = accountOpenLoop(handed, published, 8, 100.0);
  check(slow.backlogGrowing, "an updater slower than the arrivals is flagged");
  check(slow.lagMs.back() > 7000.0, "lag from due time grows with the backlog");

  // Keeps up on average but stalls for a second twice: lag jumps after each
  // stall and the p99 shows it even though the median barely moves.
  simulateUpdater(200, 100.0, 0.040, 6.0, handed, published);
  const auto stalled = accountOpenLoop(handed, published, 8, 100.0);
  check(tail(stalled.lagMs, 0.99).value > 500.0, "a stall shows in the p99 lag");
  check(median(stalled.lagMs) < 200.0, "but barely in the median");
}

void selfTime() {
  Tracer tracer(true);
  {
    Tracer::Scope root(tracer, "outer.call");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    {
      Tracer::Scope child(tracer, "inner.call");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  const auto self = tracer.selfMsByLayer();
  const auto spans = tracer.spans();
  check(spans.size() == 2 && spans[1].parent == spans[0].id, "child span records its parent");
  check(self.at("inner") >= 19.0 && self.at("outer") >= 4.0 && self.at("outer") < 15.0,
        "self time excludes the child's interval");
  Tracer off(false);
  Tracer::Scope s(off, "x.y");
  check(s.stop() >= 0.0 && off.spans().empty(), "an untraced scope times but records nothing");
}

}  // namespace

int main() {
  percentileRule();
  lagAccounting();
  selfTime();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
