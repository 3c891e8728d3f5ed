#pragma once

// The three workloads and the seeded generator every one of them draws
// its inputs from. The program under test only ever receives the
// generated deployment, query pairs and churn trace.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "routing/router.hpp"
#include "scenario/churn.hpp"
#include "scenario/generator.hpp"

namespace perfbench {

/// One workload: a deployment and a mix of phases. Every workload runs
/// every phase, so each end-to-end metric is measured on each workload;
/// the shares decide which layers a workload loads.
struct WorkloadSpec {
  std::string name;
  std::size_t deploymentN = 0;  ///< Size parameter of the deployment generator.
  std::string why;

  // Shares of --seconds spent in each phase (they sum to 1).
  double readShare = 0.0;       ///< Closed-loop readers, no writes.
  double batchShare = 0.0;      ///< 1024-pair routeBatch at hardware threads.
  double churnShare = 0.0;      ///< Open-loop churn beside two readers.
  double preprocessShare = 0.0; ///< Distributed preprocessing, repeated.

  double churnRate = 0.0;        ///< Updates per second (open loop).
  double preprocessLoss = 0.0;   ///< Drop rate on both channels.
  /// Simulator threads. Lossy runs take 2 so the faulty-run chunk-merge
  /// path runs; fault-free runs take 1, because every parallel round waits
  /// on thread wake-ups, and those waits swung the run time up to 3x with
  /// load from other work on the machine.
  int simThreads = 1;
};

constexpr int kReaders = 2;
/// Seeded deployments per run. Route cost differs from one deployment to
/// the next by more than run-to-run noise (it follows the deployment's
/// holes and overlay sites), so the read and batch phases and the quality
/// sample spread their work evenly over this many of them. Churn and
/// preprocessing use the first.
constexpr int kDeployments = 6;
constexpr std::size_t kChurnBatch = 8;
constexpr std::size_t kBatchPairs = 1024;
/// Set-up builds the service at least this many times and for at least
/// this long, and reports the median build.
constexpr std::size_t kMinSetupBuilds = 5;
constexpr double kSetupSeconds = 1.0;
/// A run is cut into rounds of about this length (see phases.hpp).
constexpr double kRoundSeconds = 2.5;

const std::vector<WorkloadSpec>& workloads();
std::optional<WorkloadSpec> findWorkload(const std::string& name);

/// Derives an independent 64-bit stream seed from the run seed.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t stream);

/// A deployment with disjoint convex obstacles (city blocks), scaled so
/// that roughly `n` nodes survive: a perturbed grid around four obstacles.
hybrid::scenario::Scenario makeDeployment(std::size_t n, std::uint64_t seed);

/// `count` uniform (s, t) pairs over nodes [0, n) with s != t.
std::vector<hybrid::routing::RoutePair> makePairs(std::size_t n, std::size_t count,
                                                  std::uint64_t seed);

/// Pairs for route quality: `sources` distinct random sources with
/// `perSource` random targets each, so exact distances cost one Dijkstra
/// per source.
std::vector<hybrid::routing::RoutePair> makeQualityPairs(std::size_t n, std::size_t sources,
                                                         std::size_t perSource,
                                                         std::uint64_t seed);

/// Churn-trace knobs: joins outweigh leaves just enough to replace the
/// nodes that obstacle additions evict, so the node count stays within
/// about 10% of its start over a run.
hybrid::scenario::ChurnParams churnParams(std::uint64_t seed, int epochs);

}  // namespace perfbench
