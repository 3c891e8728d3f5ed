#include "workload.hpp"

#include <algorithm>
#include <random>

#include "scenario/shapes.hpp"

namespace perfbench {

namespace hs = hybrid::scenario;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec s;
    s.name = "static_serve";
    s.deploymentN = 2300;
    s.why = "query layers: one-pair reads by 2 closed-loop readers and 1024-pair batches over "
           "6 seeded 2.6k-node deployments; build work only in set-up and a slow churn tail";
    s.readShare = 0.45;
    s.batchShare = 0.15;
    s.churnShare = 0.20;
    s.preprocessShare = 0.20;
    s.churnRate = 40.0;
    s.preprocessLoss = 0.0;
    v.push_back(s);

    WorkloadSpec c;
    c.name = "churn_serve";
    c.deploymentN = 700;
    c.why = "build layers: open-loop churn at 100 updates/s in batches of 8 on 6 seeded "
           "820-node deployments, one full epoch swap every 80 ms beside 2 pinned readers";
    c.readShare = 0.15;
    c.batchShare = 0.05;
    c.churnShare = 0.65;
    c.preprocessShare = 0.15;
    c.churnRate = 100.0;
    c.preprocessLoss = 0.0;
    v.push_back(c);

    WorkloadSpec l;
    l.name = "lossy_preprocess";
    l.deploymentN = 2300;
    l.why = "sim and protocol layers: the distributed preprocessing of the 2.6k-node deployment "
           "with 5% message loss, ARQ retries and 2 simulator threads";
    l.readShare = 0.15;
    l.batchShare = 0.05;
    l.churnShare = 0.15;
    l.preprocessShare = 0.65;
    l.churnRate = 40.0;
    l.preprocessLoss = 0.05;
    l.simThreads = 2;
    v.push_back(l);
    return v;
  }();
  return specs;
}

std::optional<WorkloadSpec> findWorkload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return w;
  }
  return std::nullopt;
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

hs::Scenario makeDeployment(std::size_t n, std::uint64_t seed) {
  hs::ScenarioParams p =
      hs::paramsForNodeCount(n + n / 3, static_cast<unsigned>(deriveSeed(seed, 1)));
  const double side = p.width;
  p.obstacles.push_back(
      hs::regularPolygonObstacle({0.28 * side, 0.30 * side}, 0.11 * side, 6, 0.3));
  p.obstacles.push_back(
      hs::rectangleObstacle({0.55 * side, 0.55 * side}, {0.80 * side, 0.72 * side}));
  p.obstacles.push_back(
      hs::regularPolygonObstacle({0.72 * side, 0.24 * side}, 0.09 * side, 5, 1.1));
  p.obstacles.push_back(hs::regularPolygonObstacle({0.25 * side, 0.72 * side}, 0.10 * side, 8));
  return hs::makeScenario(p);
}

std::vector<hybrid::routing::RoutePair> makePairs(std::size_t n, std::size_t count,
                                                  std::uint64_t seed) {
  std::vector<hybrid::routing::RoutePair> pairs;
  if (n < 2) return pairs;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(n) - 1);
  pairs.reserve(count);
  while (pairs.size() < count) {
    const int s = pick(rng);
    const int t = pick(rng);
    if (s != t) pairs.push_back({s, t});
  }
  return pairs;
}

std::vector<hybrid::routing::RoutePair> makeQualityPairs(std::size_t n, std::size_t sources,
                                                         std::size_t perSource,
                                                         std::uint64_t seed) {
  std::vector<hybrid::routing::RoutePair> pairs;
  if (n < 2) return pairs;
  std::mt19937_64 rng(seed);
  std::vector<int> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<int>(i);
  std::shuffle(ids.begin(), ids.end(), rng);
  std::uniform_int_distribution<int> pick(0, static_cast<int>(n) - 1);
  for (std::size_t k = 0; k < std::min(sources, n); ++k) {
    for (std::size_t j = 0; j < perSource;) {
      const int t = pick(rng);
      if (t == ids[k]) continue;
      pairs.push_back({ids[k], t});
      ++j;
    }
  }
  return pairs;
}

hs::ChurnParams churnParams(std::uint64_t seed, int epochs) {
  hs::ChurnParams p;
  p.seed = deriveSeed(seed, 3);
  p.epochs = epochs;
  p.updatesPerEpoch = static_cast<int>(kChurnBatch);
  p.joinWeight = 2.6;
  return p;
}

}  // namespace perfbench
