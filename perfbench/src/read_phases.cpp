// Read-side phases: set-up, route quality, closed-loop readers and
// batches against serve::RouteService at ServiceOptions{} defaults.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <thread>

#include "graph/shortest_path.hpp"
#include "obs/metrics.hpp"
#include "phases.hpp"

namespace perfbench {

namespace hc = hybrid::core;
namespace hg = hybrid::graph;
namespace hr = hybrid::routing;
namespace hv = hybrid::serve;
using Clock = std::chrono::steady_clock;

void QueryReplay::merge(const QueryReplay& o) {
  for (auto [dst, src] : {std::pair{&pinUs, &o.pinUs}, {&routeUs, &o.routeUs},
                          {&locateUs, &o.locateUs}, {&chewUs, &o.chewUs},
                          {&overlayUs, &o.overlayUs}, {&astarUs, &o.astarUs},
                          {&stageSumUs, &o.stageSumUs}, {&gapUs, &o.gapUs}}) {
    dst->insert(dst->end(), src->begin(), src->end());
  }
  routes += o.routes;
  chewBlocked += o.chewBlocked;
  for (int i = 0; i < 6; ++i) cases[i] += o.cases[i];
  hops += o.hops;
}

void ReaderResult::merge(const ReaderResult& o) {
  latencyUs.insert(latencyUs.end(), o.latencyUs.begin(), o.latencyUs.end());
  wallUs.insert(wallUs.end(), o.wallUs.begin(), o.wallUs.end());
  tracedUs.insert(tracedUs.end(), o.tracedUs.begin(), o.tracedUs.end());
  plainUs.insert(plainUs.end(), o.plainUs.begin(), o.plainUs.end());
  queries += o.queries;
  seconds += o.seconds;
  replay.merge(o.replay);
}

namespace {

/// Replays one (s, t) stage by stage on a pinned snapshot: the direct
/// router call, then its public sub-steps one at a time.
void replayQuery(Tracer& tracer, const hv::RouteService& service, hg::NodeId s, hg::NodeId t,
                 std::int64_t query, QueryReplay& out) {
  Tracer::Scope root(tracer, "bench.query_replay", query);
  std::shared_ptr<const hv::Snapshot> snap;
  {
    Tracer::Scope sp(tracer, "serve.pin", query);
    snap = service.snapshot();
    out.pinUs.push_back(sp.stop());
  }
  const hc::HybridNetwork& net = *snap->net;
  const hr::HybridRouter& router = net.router();
  const hg::GeometricGraph& ldel = net.ldel();
  hr::RouteResult r;
  {
    Tracer::Scope sp(tracer, "routing.route", query);
    r = router.route(s, t);
    out.routeUs.push_back(sp.stop());
  }
  double sum = 0.0;
  {
    Tracer::Scope sp(tracer, "routing.locate", query);
    [[maybe_unused]] const auto a = router.locate(ldel.position(s));
    [[maybe_unused]] const auto b = router.locate(ldel.position(t));
    out.locateUs.push_back(sp.stop());
    sum += out.locateUs.back();
  }
  {
    const hr::ChewRouter chew(ldel, net.subdivision());
    Tracer::Scope sp(tracer, "chew.route", query);
    const auto c = chew.route(s, t);
    out.chewUs.push_back(sp.stop());
    sum += out.chewUs.back();
    if (!c.delivered) ++out.chewBlocked;
  }
  {
    Tracer::Scope sp(tracer, "overlay.query", query);
    [[maybe_unused]] const auto w =
        router.overlay().waypointsWithDistance(ldel.position(s), ldel.position(t));
    out.overlayUs.push_back(sp.stop());
    sum += out.overlayUs.back();
  }
  if (r.fallbacks > 0) {
    Tracer::Scope sp(tracer, "graph.astar", query);
    [[maybe_unused]] const auto p = hg::astarPath(ldel, s, t);
    out.astarUs.push_back(sp.stop());
    sum += out.astarUs.back();
  }
  out.stageSumUs.push_back(sum);
  out.gapUs.push_back(out.routeUs.back() - sum);
  ++out.routes;
  out.cases[std::clamp(r.protocolCase, 0, 5)] += 1;
  out.hops += static_cast<double>(r.hops());
}

/// One closed-loop reader: pin the current epoch, route one pair, check
/// the walk on the pinned epoch, repeat until `stop` says so. The timed
/// call is the caller's view: pin plus a one-pair routeBatch. In a traced
/// run reader 0 also replays each query stage by stage after timing it.
void readerLoop(RunContext& ctx, const std::vector<const hv::RouteService*>& services,
                int reader, const std::function<bool()>& stop, bool pinned, bool replay,
                ReaderResult& out) {
  std::mt19937_64 rng(deriveSeed(ctx.seed, 100 + static_cast<std::uint64_t>(reader)));
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const bool replaying = replay && reader == 0;
  Tracer& tracer = replay && !replaying ? ctx.untraced : ctx.tracer;
  long k = 0;
  long attempted = 0;
  while (!stop()) {
    const double us = unit(rng);
    const double ut = unit(rng);
    const hv::RouteService& service = *services[static_cast<std::size_t>(k) % services.size()];
    const std::int64_t query = (static_cast<std::int64_t>(reader) << 32) | k++;
    // Pairs are drawn as fractions of the node count, so the same stream
    // stays valid on every epoch's node set.
    const auto pairOn = [&](const hv::Snapshot& snap) {
      const auto n = static_cast<int>(snap.net->ldel().numNodes());
      hr::RoutePair p{static_cast<hg::NodeId>(us * n), static_cast<hg::NodeId>(ut * n)};
      if (p.source == p.target) p.target = (p.target + 1) % n;
      return p;
    };
    std::shared_ptr<const hv::Snapshot> snap;
    std::vector<hr::RouteResult> res;
    hr::RoutePair pair;
    double callUs = 0.0;
    double cpuUs = 0.0;
    if (pinned) {
      // Readers beside churn pin first, so ids stay valid for the epoch.
      Tracer::Scope sp(tracer, "serve.pin_and_route", replaying ? query : -1);
      const double cpu0 = threadCpuSeconds();
      snap = service.snapshot();
      pair = pairOn(*snap);
      res = snap->net->routeBatch(std::span<const hr::RoutePair>(&pair, 1), 1);
      cpuUs = 1e6 * (threadCpuSeconds() - cpu0);
      callUs = sp.stop();
    } else {
      snap = service.snapshot();
      pair = pairOn(*snap);
      Tracer::Scope sp(tracer, "serve.route_batch", replaying ? query : -1);
      const double cpu0 = threadCpuSeconds();
      res = service.routeBatch(std::span<const hr::RoutePair>(&pair, 1), 1);
      cpuUs = 1e6 * (threadCpuSeconds() - cpu0);
      callUs = sp.stop();
    }
    out.latencyUs.push_back(cpuUs);
    out.wallUs.push_back(callUs);
    if (replay) (replaying ? out.tracedUs : out.plainUs).push_back(cpuUs);
    ++attempted;
    if (res.size() != 1 || !validWalk(res[0], pair.source, pair.target, snap->net->ldel())) {
      ctx.fail(pairText("reader route is not a valid walk", pair.source, pair.target) +
               " in epoch " + std::to_string(snap->epoch) + " (" +
               (res.size() == 1 && res[0].delivered ? "delivered" : "not delivered") + ")");
    }
    if (replaying) replayQuery(ctx.tracer, service, pair.source, pair.target, query, out.replay);
  }
  out.queries = attempted;
  ctx.attempt(attempted);
}

std::uint64_t obsCounter(const std::string& name) {
  for (const auto& [n, v] : hybrid::obs::Registry::global().counterValues()) {
    if (n == name) return v;
  }
  return 0;
}

}  // namespace

ReaderResult runReaders(RunContext& ctx, const std::vector<const hv::RouteService*>& services,
                        const std::function<bool()>& stop, bool pinned, bool replay,
                        const std::function<void(std::vector<clockid_t>)>& started) {
  std::vector<ReaderResult> parts(kReaders);
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back([&, r] {
        try {
          readerLoop(ctx, services, r, stop, pinned, replay, parts[r]);
        } catch (const std::exception& e) {
          ctx.fail("reader " + std::to_string(r) + ": " + e.what());
        }
      });
    }
    if (started) {
      std::vector<clockid_t> clocks;
      try {
        for (auto& t : threads) clocks.push_back(cpuClockOf(t.native_handle()));
      } catch (const std::exception& e) {
        ctx.fail(std::string("reader CPU clocks: ") + e.what());
      }
      started(std::move(clocks));
    }
  }
  ReaderResult all;
  for (const auto& p : parts) all.merge(p);
  all.seconds = secondsSince(t0);
  return all;
}

namespace {

void reportReaders(RunContext& ctx, const ReaderResult& r) {
  if (!ctx.tracing()) {
    ctx.endToEndTail("route_p99_us", tail(r.latencyUs, 0.99), "us");
    return;
  }
  ctx.perLayer("serve.route_cpu_us.p50", median(r.latencyUs), "us");
  // Wall-clock figures: what a caller waited, core waits included.
  ctx.perLayer("serve.route_wall_us.p50", median(r.wallUs), "us");
  ctx.perLayerTail("serve.route_wall_us.p99", tail(r.wallUs, 0.99), "us");
  ctx.perLayer("serve.route_qps", static_cast<double>(r.queries) / r.seconds, "1/s");
  const QueryReplay& q = r.replay;
  const std::pair<const char*, const std::vector<double>*> stages[] = {
      {"serve.pin_us", &q.pinUs},       {"routing.route_us", &q.routeUs},
      {"routing.locate_us", &q.locateUs}, {"chew.route_us", &q.chewUs},
      {"overlay.query_us", &q.overlayUs}, {"graph.astar_us", &q.astarUs}};
  for (const auto& [name, v] : stages) {
    ctx.perLayer(std::string(name) + ".p50", median(*v), "us");
    ctx.perLayerTail(std::string(name) + ".p99", tail(*v, 0.99), "us");
  }
  ctx.perLayer("routing.stage_sum_us.p50", median(q.stageSumUs), "us");
  ctx.perLayer("routing.stage_gap_us.p50", median(q.gapUs), "us");
  const double routes = std::max(1.0, static_cast<double>(q.routes));
  ctx.perLayer("chew.blocked_share", static_cast<double>(q.chewBlocked) / routes, "share");
  for (int c = 0; c <= 5; ++c) {
    ctx.perLayer("routing.case_share." + std::to_string(c),
                 static_cast<double>(q.cases[c]) / routes, "share");
  }
  ctx.perLayer("routing.hops_mean", q.hops / routes, "hops");
  const double plain = median(r.plainUs);
  ctx.perLayer("trace.overhead_share", plain > 0.0 ? median(r.tracedUs) / plain - 1.0 : 0.0,
               "share");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "query stages: route %.1f us beside locate+chew+overlay+astar %.1f us "
                "(gap %.1f us, p50 over %ld queries)",
                median(q.routeUs), median(q.stageSumUs), median(q.gapUs), q.routes);
  ctx.note(buf);
}

}  // namespace

// ---------------------------------------------------------------------------
// Phases

Services setupServices(RunContext& ctx,
                       const std::vector<hybrid::scenario::Scenario>& deployments) {
  std::vector<double> secs;
  std::vector<double> cpuSecs;
  Services services(deployments.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < deployments.size() || secs.size() < kMinSetupBuilds ||
                          secondsSince(t0) < kSetupSeconds;
       ++i) {
    auto& service = services[i % deployments.size()];
    service.reset();
    Tracer::Scope sp(ctx.tracer, "serve.setup");
    const double cpu0 = processCpuSeconds();
    service = std::make_unique<hv::RouteService>(deployments[i % deployments.size()],
                                                 hv::ServiceOptions{});
    cpuSecs.push_back(processCpuSeconds() - cpu0);
    secs.push_back(1e-6 * sp.stop());
  }
  if (!ctx.tracing()) ctx.endToEnd("setup_s", median(cpuSecs), "s");
  double holes = 0, sites = 0, udgEdges = 0, ldelEdges = 0;
  for (const auto& service : services) {
    const auto snap = service->snapshot();
    const hc::HybridNetwork& net = *snap->net;
    char buf[200];
    std::snprintf(buf, sizeof buf, "deployment: n=%zu holes=%zu overlay_sites=%zu router=%s",
                  net.ldel().numNodes(), net.holes().holes.size(),
                  net.router().overlay().sites().size(), net.router().name().c_str());
    ctx.note(buf);
    holes += static_cast<double>(net.holes().holes.size());
    sites += static_cast<double>(net.router().overlay().sites().size());
    udgEdges += static_cast<double>(net.udg().numEdges());
    ldelEdges += static_cast<double>(net.ldel().numEdges());
  }
  if (ctx.tracing()) {
    // Means over the deployments.
    const double k = static_cast<double>(services.size());
    ctx.perLayer("serve.setup_wall_s", median(secs), "s");
    ctx.perLayer("delaunay.udg_edges", udgEdges / k, "count");
    ctx.perLayer("delaunay.ldel_edges", ldelEdges / k, "count");
    ctx.perLayer("holes.count", holes / k, "count");
    ctx.perLayer("overlay.sites", sites / k, "count");
  }
  return services;
}

void qualityCheck(RunContext& ctx, const Services& services) {
  // A fixed total sample, split evenly over the deployments.
  constexpr std::size_t kSources = 400;
  constexpr std::size_t kPerSource = 8;
  constexpr std::size_t kFreshPairs = 64;
  const std::size_t k = services.size();
  std::vector<double> stretches;
  long fallbacks = 0;
  long routes = 0;
  for (std::size_t d = 0; d < k; ++d) {
    const hv::RouteService& service = *services[d];
    const auto snap = service.snapshot();
    const hc::HybridNetwork& net = *snap->net;
    const std::size_t n = net.ldel().numNodes();
    const auto pairs = makeQualityPairs(n, (kSources + k - 1) / k, kPerSource,
                                        deriveSeed(deriveSeed(ctx.seed, 4), d));
    const auto served = service.routeBatch(pairs, hardwareThreads());
    ctx.attempt(static_cast<long>(pairs.size()));
    routes += static_cast<long>(pairs.size());

    for (std::size_t i = 0; i < pairs.size(); i += kPerSource) {
      const auto tree = hg::dijkstra(net.udg(), pairs[i].source);
      for (std::size_t j = i; j < std::min(pairs.size(), i + kPerSource); ++j) {
        const auto& r = served[j];
        if (!validWalk(r, pairs[j].source, pairs[j].target, net.ldel())) {
          ctx.fail(pairText("quality route is not a valid walk", pairs[j].source,
                            pairs[j].target));
          continue;
        }
        if (r.fallbacks > 0) ++fallbacks;
        const double opt = tree.dist[static_cast<std::size_t>(pairs[j].target)];
        stretches.push_back(opt > 0.0 ? net.ldel().pathLength(r.path) / opt : 1.0);
      }
    }

    const hc::HybridNetwork fresh(snap->scenario.points, service.options().ldel,
                                  service.options().router, nullptr);
    for (std::size_t i = 0; i < std::min((kFreshPairs + k - 1) / k, pairs.size()); ++i) {
      ctx.attempt();
      const auto want = fresh.route(pairs[i].source, pairs[i].target);
      if (want.path != served[i].path || want.delivered != served[i].delivered) {
        ctx.fail(pairText("epoch 0 answer differs from a fresh build", pairs[i].source,
                          pairs[i].target));
      }
    }
  }
  if (!ctx.tracing()) {
    ctx.endToEnd("stretch_mean", mean(stretches), "ratio");
    ctx.endToEndTail("stretch_p99", tail(stretches, 0.99), "ratio");
  } else {
    ctx.perLayer("routing.fallback_share",
                 static_cast<double>(fallbacks) / static_cast<double>(std::max(1L, routes)),
                 "share");
  }
}

ReadPhase::ReadPhase(RunContext& ctx, const Services& services) : ctx_(ctx) {
  for (const auto& s : services) services_.push_back(s.get());
}

void ReadPhase::slice(double seconds) {
  const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
  readers_.merge(runReaders(
      ctx_, services_, [&] { return Clock::now() >= deadline; }, false, ctx_.tracing()));
}

void ReadPhase::finish() { reportReaders(ctx_, readers_); }

void BatchPhase::slice(double seconds) {
  const auto t0 = Clock::now();
  do {
    const hv::RouteService& service = *services_[batches_.size() % services_.size()];
    const auto snap = service.snapshot();
    const std::size_t n = snap->net->ldel().numNodes();
    batches_.push_back(
        makePairs(n, kBatchPairs, deriveSeed(ctx_.seed, 1000 + batches_.size())));
    const auto& pairs = batches_.back();
    Tracer::Scope sp(ctx_.tracer, "serve.route_batch");
    const auto res = service.routeBatch(pairs, hardwareThreads());
    callSeconds_.push_back(1e-6 * sp.stop());
    ctx_.attempt(static_cast<long>(pairs.size()));
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (res.size() != pairs.size() ||
          !validWalk(res[i], pairs[i].source, pairs[i].target, snap->net->ldel())) {
        ctx_.fail(pairText("batch route is not a valid walk", pairs[i].source, pairs[i].target));
      }
    }
  } while (secondsSince(t0) < seconds);
}

void BatchPhase::finish() {
  std::vector<double> qps;
  for (const double s : callSeconds_) qps.push_back(static_cast<double>(kBatchPairs) / s);
  if (!ctx_.tracing()) return;
  ctx_.perLayer("serve.batch_qps", median(qps), "1/s");
  // The first batches again on one thread (at most three, to bound the
  // traced run).
  const std::size_t k = std::min<std::size_t>(3, batches_.size());
  double multi = 0.0;
  double single = 0.0;
  for (std::size_t b = 0; b < k; ++b) {
    multi += callSeconds_[b];
    Tracer::Scope sp(ctx_.tracer, "serve.route_batch_1t");
    (void)services_[b % services_.size()]->routeBatch(batches_[b], 1);
    single += 1e-6 * sp.stop();
  }
  ctx_.perLayer("util.batch_speedup", single / multi, "ratio");
  ctx_.perLayer("overlay.query.rebuild",
                static_cast<double>(obsCounter("overlay.query.rebuild")), "count");
  ctx_.perLayer("overlay.query.incremental",
                static_cast<double>(obsCounter("overlay.query.incremental")), "count");
}

}  // namespace perfbench
