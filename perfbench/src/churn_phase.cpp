// Open-loop churn against serve::RouteService at ServiceOptions{} defaults,
// beside pinned readers, and (traced run) the epoch builds replayed stage
// by stage.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <random>
#include <set>
#include <thread>

#include "open_loop.hpp"
#include "phases.hpp"

namespace perfbench {

namespace hc = hybrid::core;
namespace hr = hybrid::routing;
namespace hv = hybrid::serve;
using Clock = std::chrono::steady_clock;

namespace {

/// Build stage timings of one point set, replayed from outside: first the
/// HybridNetwork constructor as one call, then the same stage sequence the
/// constructor runs, one public call at a time.
struct BuildReplay {
  std::vector<double> coreMs, ldelMs, holesMs, abstractionMs, subdivisionMs, routerMs, sumMs;
};

void replayBuild(RunContext& ctx, const std::vector<hybrid::geom::Vec2>& points,
                 const hv::ServiceOptions& opts, BuildReplay& out) {
  {
    Tracer::Scope sp(ctx.tracer, "core.build");
    const hc::HybridNetwork net(points, opts.ldel, opts.router, nullptr);
    out.coreMs.push_back(1e-3 * sp.stop());
  }
  Tracer::Scope root(ctx.tracer, "bench.build_replay");
  const double radius = opts.ldel.radius;
  Tracer::Scope s1(ctx.tracer, "delaunay.ldel");
  const auto ldel = hybrid::delaunay::buildLocalizedDelaunay(points, opts.ldel);
  out.ldelMs.push_back(1e-3 * s1.stop());
  Tracer::Scope s2(ctx.tracer, "holes.detect");
  const auto holes = hybrid::holes::detectHoles(ldel.graph, radius);
  out.holesMs.push_back(1e-3 * s2.stop());
  Tracer::Scope s3(ctx.tracer, "abstraction.build");
  const auto abstractions = hybrid::abstraction::buildAbstractions(ldel.graph, holes, radius);
  out.abstractionMs.push_back(1e-3 * s3.stop());
  Tracer::Scope s4(ctx.tracer, "routing.subdivision");
  const hr::PlanarSubdivision sub(ldel.graph, holes, radius);
  out.subdivisionMs.push_back(1e-3 * s4.stop());
  Tracer::Scope s5(ctx.tracer, "routing.router_build");
  const hr::HybridRouter router(ldel.graph, holes, abstractions, sub, opts.router, nullptr);
  out.routerMs.push_back(1e-3 * s5.stop());
  out.sumMs.push_back(out.ldelMs.back() + out.holesMs.back() + out.abstractionMs.back() +
                      out.subdivisionMs.back() + out.routerMs.back());
}

}  // namespace

ChurnPhase::ChurnPhase(RunContext& ctx, hv::RouteService& service, double sliceSeconds,
                       int slices)
    : ctx_(ctx), service_(service) {
  perSlice_ = std::max(1, static_cast<int>(ctx.spec.churnRate * sliceSeconds /
                                           static_cast<double>(kChurnBatch)));
  const int epochs = perSlice_ * std::max(1, slices);
  const auto start = service_.snapshot();
  trace_ = hybrid::scenario::makeChurnTrace(start->scenario, churnParams(ctx.seed, epochs));
  firstEpoch_ = start->epoch + 1;
  startNodes_ = minNodes_ = maxNodes_ = start->scenario.points.size();

  // Trace batches whose epochs the gate checks against a fresh build (and
  // the traced run replays stage by stage): the last one and a seeded
  // sample of the others.
  constexpr std::size_t kChecked = 6;
  std::set<int> checked{epochs - 1};
  std::mt19937_64 rng(deriveSeed(ctx.seed, 5));
  std::uniform_int_distribution<int> pick(0, epochs - 1);
  for (int guard = 0; checked.size() < std::min<std::size_t>(kChecked, epochs) && guard < 1000;
       ++guard) {
    checked.insert(pick(rng));
  }
  checked_.assign(checked.begin(), checked.end());
}

void ChurnPhase::slice() {
  const double rate = ctx_.spec.churnRate;
  const int begin = next_;
  const int end = std::min<int>(begin + perSlice_, static_cast<int>(trace_.size()));
  if (begin >= end) return;
  next_ = end;
  const auto count = static_cast<std::size_t>(end - begin);

  // Generator -> updater hand-over: complete batches, one per epoch, so
  // epoch contents never depend on timing.
  std::mutex mu;
  std::condition_variable cv;
  std::deque<int> ready;
  bool generatorDone = false;
  std::vector<double> handed(count, 0.0);
  std::vector<double> published(count, 0.0);
  std::atomic<bool> updaterDone{false};
  // The readers' CPU clocks: a swap's CPU time is the process's minus the
  // readers' over the swap (the generator sleeps, the main thread joins).
  std::vector<clockid_t> readerClocks;
  bool readersStarted = false;

  const auto t0 = Clock::now();
  {
    std::jthread generator([&] {
      for (std::size_t i = 0; i < count; ++i) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(batchDue(i, kChurnBatch, rate))));
        std::lock_guard<std::mutex> lock(mu);
        handed[i] = secondsSince(t0);
        ready.push_back(static_cast<int>(i));
        cv.notify_all();
      }
      std::lock_guard<std::mutex> lock(mu);
      generatorDone = true;
      cv.notify_all();
    });
    // One complete batch per epoch, in trace order.
    const auto applyBatches = [&] {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return readersStarted; });
      }
      for (;;) {
        int i = -1;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return !ready.empty() || generatorDone; });
          if (ready.empty()) break;
          depth_.push_back(static_cast<double>(ready.size()));
          i = ready.front();
          ready.pop_front();
        }
        const int k = begin + i;
        service_.enqueue(trace_[static_cast<std::size_t>(k)]);
        Tracer::Scope sp(ctx_.tracer, "serve.apply_updates");
        const double process0 = processCpuSeconds();
        const double readers0 = cpuSecondsOf(readerClocks);
        const auto st = service_.applyUpdates();
        const double readers1 = cpuSecondsOf(readerClocks);
        const double process1 = processCpuSeconds();
        sp.stop();
        published[static_cast<std::size_t>(i)] = secondsSince(t0);
        swapMs_.push_back(1e3 * ((process1 - process0) - (readers1 - readers0)));
        swapWallMs_.push_back(st.swapMs);
        minNodes_ = std::min(minNodes_, st.nodes);
        maxNodes_ = std::max(maxNodes_, st.nodes);
        if (std::binary_search(checked_.begin(), checked_.end(), k)) {
          pins_[k] = service_.snapshot();
        }
      }
    };
    std::jthread updater([&] {
      try {
        applyBatches();
      } catch (const std::exception& e) {
        ctx_.fail(std::string("churn updater: ") + e.what());
      }
      updaterDone = true;
    });
    readers_.merge(runReaders(
        ctx_, {&service_}, [&] { return updaterDone.load(); }, true, false,
        [&](std::vector<clockid_t> clocks) {
          std::lock_guard<std::mutex> lock(mu);
          readerClocks = std::move(clocks);
          readersStarted = true;
          cv.notify_all();
        }));
  }
  ctx_.attempt(static_cast<long>(count));
  const auto account = accountOpenLoop(handed, published, kChurnBatch, rate);
  lagMs_.insert(lagMs_.end(), account.lagMs.begin(), account.lagMs.end());
  generatorLateMs_.insert(generatorLateMs_.end(), account.generatorLateMs.begin(),
                          account.generatorLateMs.end());
  backlogGrowthMs_ = std::max(backlogGrowthMs_, account.backlogGrowthMs);
  backlogGrowing_ = backlogGrowing_ || account.backlogGrowing;
}

void ChurnPhase::finish() {
  if (!ctx_.tracing()) ctx_.endToEnd("swap_p50_ms", median(swapMs_), "ms");
  char buf[300];
  std::snprintf(buf, sizeof buf,
                "churn: %d epochs of %zu at %.0f updates/s in slices of %d, nodes %zu -> [%zu, "
                "%zu], generator late p99 %.2f ms, queue depth p50 %.1f, backlog %s "
                "(%+.1f ms)",
                next_, kChurnBatch, ctx_.spec.churnRate, perSlice_, startNodes_, minNodes_,
                maxNodes_, tail(generatorLateMs_, 0.99).value, median(depth_),
                backlogGrowing_ ? "GROWING" : "steady", backlogGrowthMs_);
  ctx_.note(buf);

  // Gate: each checked epoch's served answers equal a fresh build's.
  constexpr std::size_t kPairsPerEpoch = 48;
  for (const auto& [k, snap] : pins_) {
    const hc::HybridNetwork fresh(snap->scenario.points, service_.options().ldel,
                                  service_.options().router, nullptr);
    const auto pairs = makePairs(snap->scenario.points.size(), kPairsPerEpoch,
                                 deriveSeed(ctx_.seed, 2000 + static_cast<std::uint64_t>(k)));
    const auto served = snap->net->routeBatch(pairs, 1);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      ctx_.attempt();
      const auto want = fresh.route(pairs[i].source, pairs[i].target);
      if (want.path != served[i].path || want.delivered != served[i].delivered) {
        ctx_.fail("epoch " + std::to_string(snap->epoch) +
                  pairText(" answer differs from a fresh build", pairs[i].source,
                           pairs[i].target));
      }
    }
  }
  if (!ctx_.tracing()) return;

  // Wall-clock figures: swaps and open-loop lag as the clock on the wall
  // saw them, core waits included; and the pinned readers beside churn.
  ctx_.perLayerTail("serve.swap_cpu_ms.p95", tail(swapMs_, 0.95), "ms");
  ctx_.perLayer("serve.swap_wall_ms.p50", median(swapWallMs_), "ms");
  ctx_.perLayer("serve.update_lag_ms.p50", median(lagMs_), "ms");
  ctx_.perLayerTail("serve.update_lag_ms.p99", tail(lagMs_, 0.99), "ms");
  ctx_.perLayerTail("serve.generator_late_ms.p99", tail(generatorLateMs_, 0.99), "ms");
  ctx_.perLayer("serve.backlog_growth_ms", backlogGrowthMs_, "ms");
  ctx_.perLayer("serve.churn_route_us.p50", median(readers_.latencyUs), "us");
  ctx_.perLayerTail("serve.churn_route_us.p99", tail(readers_.latencyUs, 0.99), "us");
  double offered = 0.0, rejected = 0.0, evicted = 0.0, changedRings = 0.0;
  long counted = 0;
  for (const auto& st : service_.history()) {
    if (st.epoch < firstEpoch_) continue;
    offered += st.offered;
    rejected += st.rejected;
    evicted += st.evicted;
    changedRings += st.changedRings;
    ++counted;
  }
  ctx_.perLayer("serve.epochs_full", static_cast<double>(service_.fullRebuilds()), "count");
  ctx_.perLayer("serve.epochs_incremental",
                static_cast<double>(service_.incrementalRebuilds()), "count");
  ctx_.perLayer("serve.epochs_reused", static_cast<double>(service_.reusedEpochs()), "count");
  ctx_.perLayer("serve.updates_rejected_share", offered > 0.0 ? rejected / offered : 0.0,
                "share");
  ctx_.perLayer("serve.nodes_evicted", evicted, "count");
  ctx_.perLayer("serve.changed_rings", counted > 0 ? changedRings / counted : 0.0,
                "rings/epoch");

  // Replay the checked epochs' builds stage by stage.
  BuildReplay b;
  std::vector<double> swapSelf;
  for (const auto& [k, snap] : pins_) {
    replayBuild(ctx_, snap->scenario.points, service_.options(), b);
    swapSelf.push_back(swapWallMs_[static_cast<std::size_t>(k)] - b.coreMs.back());
  }
  const std::pair<const char*, const std::vector<double>*> stages[] = {
      {"delaunay.ldel_ms", &b.ldelMs},
      {"holes.detect_ms", &b.holesMs},
      {"abstraction.build_ms", &b.abstractionMs},
      {"routing.subdivision_ms", &b.subdivisionMs},
      {"routing.router_build_ms", &b.routerMs},
      {"core.build_ms", &b.coreMs},
      {"core.stage_sum_ms", &b.sumMs}};
  for (const auto& [name, v] : stages) ctx_.perLayer(name, median(*v), "ms");
  ctx_.perLayer("serve.swap_self_ms", median(swapSelf), "ms");
  std::snprintf(buf, sizeof buf,
                "build stages: core.build %.2f ms beside stage sum %.2f ms (gap %.2f ms, p50 "
                "over %zu epochs)",
                median(b.coreMs), median(b.sumMs), median(b.coreMs) - median(b.sumMs),
                b.coreMs.size());
  ctx_.note(buf);
}

}  // namespace perfbench
