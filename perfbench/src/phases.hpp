#pragma once

// The phases of a run. A run is cut into rounds of a few seconds, and each
// round gives every phase its share of the round, so every metric samples
// the whole run rather than one contiguous stretch of it (load from other
// work on the machine drifts over tens of seconds). Each phase gathers
// samples slice by slice and reports once, in finish(), after its
// correctness checks.

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "cpu_clock.hpp"
#include "protocols/preprocessing.hpp"
#include "run_context.hpp"
#include "sim/fault_plan.hpp"

namespace perfbench {

using Services = std::vector<std::unique_ptr<hybrid::serve::RouteService>>;

/// Builds one service per deployment, round-robin, until every deployment
/// has one and kMinSetupBuilds builds and kSetupSeconds have passed;
/// reports the median build as setup_s and keeps the last of each.
Services setupServices(RunContext& ctx,
                       const std::vector<hybrid::scenario::Scenario>& deployments);

/// Untimed: route quality on a fixed seeded sample of every service's
/// epoch 0, and epoch 0's answers against a fresh build.
void qualityCheck(RunContext& ctx, const Services& services);

/// Per-stage timings of queries replayed call by call from outside the
/// router (traced run only).
struct QueryReplay {
  std::vector<double> pinUs, routeUs, locateUs, chewUs, overlayUs, astarUs, stageSumUs, gapUs;
  long routes = 0;
  long chewBlocked = 0;
  long cases[6] = {0, 0, 0, 0, 0, 0};
  double hops = 0.0;

  void merge(const QueryReplay& o);
};

/// Closed-loop reader samples.
struct ReaderResult {
  std::vector<double> latencyUs;  ///< Per call, on the calling thread's CPU clock.
  std::vector<double> wallUs;     ///< Per call, wall clock.
  std::vector<double> tracedUs;  ///< Traced run: CPU time of the replaying reader's calls.
  std::vector<double> plainUs;   ///< Traced run: CPU time of the untraced reader's calls.
  long queries = 0;
  double seconds = 0.0;
  QueryReplay replay;

  void merge(const ReaderResult& o);
};

/// Runs kReaders closed-loop readers until `stop`; query k of a reader
/// goes to services[k % size]. `pinned` readers pin a snapshot and route
/// on it (needed beside churn, where node ids change between epochs); the
/// others call RouteService::routeBatch. With `replay` (traced run)
/// reader 0 replays each query stage by stage and reader 1 records
/// nothing, so the two show the tracing overhead. `started`, when given,
/// receives the readers' CPU clocks once they run.
ReaderResult runReaders(RunContext& ctx,
                        const std::vector<const hybrid::serve::RouteService*>& services,
                        const std::function<bool()>& stop, bool pinned, bool replay,
                        const std::function<void(std::vector<clockid_t>)>& started = {});

/// Closed-loop one-pair reads on the static services, no writes.
class ReadPhase {
 public:
  ReadPhase(RunContext& ctx, const Services& services);
  void slice(double seconds);
  /// route_* end-to-end metrics (untraced run) or the query-layer
  /// metrics (traced run).
  void finish();

 private:
  RunContext& ctx_;
  std::vector<const hybrid::serve::RouteService*> services_;
  ReaderResult readers_;
};

/// kBatchPairs-pair routeBatch calls at hardware threads; batch b goes to
/// services[b % size].
class BatchPhase {
 public:
  BatchPhase(RunContext& ctx, const Services& services) : ctx_(ctx), services_(services) {}
  void slice(double seconds);
  void finish();

 private:
  RunContext& ctx_;
  const Services& services_;
  std::vector<std::vector<hybrid::routing::RoutePair>> batches_;
  std::vector<double> callSeconds_;
};

/// runDistributedPreprocessing on a fresh simulator per repetition, with
/// the workload's message loss on both channels.
class PreprocessPhase {
 public:
  PreprocessPhase(RunContext& ctx, const hybrid::core::HybridNetwork& net);
  void slice(double seconds);
  void finish();

  /// What the gate compares between runs.
  struct Outcome {
    std::vector<std::vector<int>> rings;
    std::vector<std::vector<int>> hulls;
    std::vector<std::vector<int>> dominatingSets;
    std::vector<std::vector<int>> hullKnowledge;  ///< Per node, sorted.
    bool operator==(const Outcome&) const = default;
  };
  struct Run {
    double seconds = 0.0;     ///< Wall clock.
    double cpuSeconds = 0.0;  ///< CPU time of the process (every simulator thread).
    hybrid::protocols::PreprocessingReport report;
    long dropped = 0;
    Outcome outcome;
  };

 private:
  RunContext& ctx_;
  const hybrid::core::HybridNetwork& net_;
  hybrid::sim::FaultPlan plan_;
  std::vector<Run> runs_;
  double budget_ = 0.0;  ///< Seconds the slices so far were given.
  double spent_ = 0.0;   ///< Seconds the runs so far took.
};

/// Open-loop churn on its own service beside kReaders pinned readers. The
/// churn trace is cut into equal slices; each slice replays its schedule
/// from the slice start and drains before returning.
class ChurnPhase {
 public:
  ChurnPhase(RunContext& ctx, hybrid::serve::RouteService& service, double sliceSeconds,
             int slices);
  void slice();
  void finish();

 private:
  RunContext& ctx_;
  hybrid::serve::RouteService& service_;
  int perSlice_ = 1;
  int next_ = 0;  ///< Next trace batch.
  std::uint64_t firstEpoch_ = 0;
  std::size_t startNodes_ = 0;
  std::size_t minNodes_ = 0;
  std::size_t maxNodes_ = 0;
  std::vector<std::vector<hybrid::scenario::Update>> trace_;
  std::vector<int> checked_;  ///< Sorted trace batches whose epochs the gate checks.
  std::map<int, std::shared_ptr<const hybrid::serve::Snapshot>> pins_;
  std::vector<double> swapMs_;     ///< Per epoch, CPU time of the swap on all its threads.
  std::vector<double> swapWallMs_; ///< Per epoch, EpochStats::swapMs (wall clock).
  std::vector<double> lagMs_;
  std::vector<double> generatorLateMs_;
  std::vector<double> depth_;
  double backlogGrowthMs_ = 0.0;
  bool backlogGrowing_ = false;
  ReaderResult readers_;
};

}  // namespace perfbench
