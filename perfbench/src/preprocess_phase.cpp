// Distributed preprocessing phase (paper §5): the full pipeline on the
// simulator, repeated, with the workload's message loss.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>

#include "protocols/dominating_set_protocol.hpp"
#include "protocols/ldel_protocol.hpp"
#include "protocols/overlay_tree.hpp"
#include "protocols/preprocessing.hpp"
#include "protocols/reliable.hpp"
#include "protocols/ring_pipeline.hpp"
#include "phases.hpp"

namespace perfbench {

namespace hp = hybrid::protocols;
namespace hs = hybrid::sim;
using Clock = std::chrono::steady_clock;

namespace {

constexpr unsigned kProtocolSeed = 3;

hs::FaultPlan faultPlan(const RunContext& ctx) {
  hs::FaultConfig cfg;
  cfg.seed = deriveSeed(ctx.seed, 6);
  cfg.adHocDrop = ctx.spec.preprocessLoss;
  cfg.longRangeDrop = ctx.spec.preprocessLoss;
  return hs::FaultPlan(cfg);
}

using Outcome = PreprocessPhase::Outcome;

Outcome outcomeOf(const hp::PreprocessingOutputs& out, std::vector<std::vector<int>> rings) {
  Outcome o;
  o.rings = std::move(rings);
  for (const auto& r : out.ringResults) o.hulls.push_back(r.hull);
  o.dominatingSets = out.bayDominatingSets;
  o.hullKnowledge = out.hullKnowledge;
  for (auto& known : o.hullKnowledge) std::sort(known.begin(), known.end());
  return o;
}

std::vector<std::vector<int>> bayChains(const hybrid::core::HybridNetwork& net) {
  std::vector<std::vector<int>> chains;
  for (const auto& a : net.abstractions()) {
    for (const auto& bay : a.bays) chains.push_back(bay.chain);
  }
  return chains;
}

/// Mean share of the fault-free run's hull sites that each hull node of
/// `got` learned (1 when nothing was lost).
double hullKnownShare(const Outcome& got, const Outcome& faultFree) {
  double sum = 0.0;
  std::size_t nodes = 0;
  for (std::size_t v = 0; v < faultFree.hullKnowledge.size(); ++v) {
    const auto& want = faultFree.hullKnowledge[v];
    if (want.empty()) continue;
    const auto& have =
        v < got.hullKnowledge.size() ? got.hullKnowledge[v] : std::vector<int>{};
    std::vector<int> common;
    std::set_intersection(want.begin(), want.end(), have.begin(), have.end(),
                          std::back_inserter(common));
    sum += static_cast<double>(common.size()) / static_cast<double>(want.size());
    ++nodes;
  }
  return nodes == 0 ? 1.0 : sum / static_cast<double>(nodes);
}

/// True when `set` holds only chain nodes and every chain node is in it or
/// next to a member along the chain.
bool dominatesChain(const std::vector<int>& chain, const std::vector<int>& set) {
  std::vector<char> in(chain.size(), 0);
  for (const int v : set) {
    const auto it = std::find(chain.begin(), chain.end(), v);
    if (it == chain.end()) return false;
    in[static_cast<std::size_t>(it - chain.begin())] = 1;
  }
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const bool covered = in[i] != 0 || (i > 0 && in[i - 1] != 0) ||
                         (i + 1 < chain.size() && in[i + 1] != 0);
    if (!covered) return false;
  }
  return true;
}

PreprocessPhase::Run runPipeline(RunContext& ctx, const hybrid::core::HybridNetwork& net,
                        const hs::FaultPlan& plan) {
  hs::Simulator sim(net.udg(), plan);
  sim.setThreads(ctx.spec.simThreads);
  const hp::RetryPolicy retry;
  PreprocessPhase::Run run;
  std::vector<std::vector<int>> rings;
  Tracer::Scope sp(ctx.tracer, "protocols.preprocess");
  const double cpu0 = processCpuSeconds();
  const auto out = hp::runDistributedPreprocessing(net, sim, &run.report, kProtocolSeed, &rings,
                                                   plan.active() ? &retry : nullptr);
  run.cpuSeconds = processCpuSeconds() - cpu0;
  run.seconds = 1e-6 * sp.stop();
  run.dropped = sim.totalDropped();
  run.outcome = outcomeOf(out, std::move(rings));
  return run;
}

/// The pipeline's phases called one at a time from outside, in the order
/// runDistributedPreprocessing runs them, on a fresh simulator with the
/// same fault plan — so the fault schedule, and the outputs, repeat.
struct PhaseReplay {
  double ldelMs = 0, ringMs = 0, treeMs = 0, hullMs = 0, dsMs = 0;
  int ldelRounds = 0, ringRounds = 0, treeRounds = 0, hullRounds = 0, dsRounds = 0;
  std::vector<std::pair<int, int>> ldelEdges;
  Outcome outcome;
  double sumMs() const { return ldelMs + ringMs + treeMs + hullMs + dsMs; }
};

PhaseReplay replayPhases(RunContext& ctx, const hybrid::core::HybridNetwork& net,
                         const hs::FaultPlan& plan) {
  hs::Simulator sim(net.udg(), plan);
  sim.setThreads(ctx.spec.simThreads);
  const hp::RetryPolicy retry;
  const hp::RetryPolicy* retryPtr = plan.active() ? &retry : nullptr;
  PhaseReplay r;
  Tracer::Scope root(ctx.tracer, "bench.preprocess_replay");

  Tracer::Scope s1(ctx.tracer, "protocols.ldel");
  const auto ldel = hp::runLdelConstruction(sim, net.radius(), retryPtr);
  r.ldelMs = 1e-3 * s1.stop();
  r.ldelRounds = ldel.rounds;
  r.ldelEdges = ldel.graph.edges();

  Tracer::Scope s2(ctx.tracer, "protocols.ring");
  std::vector<std::vector<int>> rings = hp::assembleRingsFromGaps(ldel);
  hp::RingPipeline pipeline(sim, hp::RingInputs{rings}, retryPtr);
  hp::PreprocessingOutputs out;
  out.ringResults = pipeline.run();
  r.ringRounds = pipeline.rounds().total();
  std::vector<std::vector<int>> outerHoleRings;
  for (std::size_t ri = 0; ri < out.ringResults.size(); ++ri) {
    const auto& res = out.ringResults[ri];
    if (res.leader < 0 || res.turningAngle >= 0.0) continue;
    const auto derived =
        hp::deriveOuterHoleRings(rings[ri], res.hull, net.udg(), net.radius());
    outerHoleRings.insert(outerHoleRings.end(), derived.begin(), derived.end());
  }
  if (!outerHoleRings.empty()) {
    hp::RingPipeline second(sim, hp::RingInputs{outerHoleRings}, retryPtr);
    auto secondResults = second.run();
    r.ringRounds += second.rounds().total();
    for (std::size_t i = 0; i < outerHoleRings.size(); ++i) {
      rings.push_back(outerHoleRings[i]);
      out.ringResults.push_back(std::move(secondResults[i]));
    }
  }
  r.ringMs = 1e-3 * s2.stop();

  Tracer::Scope s3(ctx.tracer, "protocols.tree");
  out.tree = hp::buildOverlayTree(sim, kProtocolSeed);
  r.treeMs = 1e-3 * s3.stop();
  r.treeRounds = out.tree.rounds;

  Tracer::Scope s4(ctx.tracer, "protocols.hull");
  std::vector<char> isHull(sim.numNodes(), 0);
  for (const auto& res : out.ringResults) {
    if (res.turningAngle <= 0.0) continue;
    for (int v : res.hull) isHull[static_cast<std::size_t>(v)] = 1;
  }
  r.hullRounds = hp::distributeHullInfo(sim, out.tree, isHull, &out.hullKnowledge);
  r.hullMs = 1e-3 * s4.stop();

  Tracer::Scope s5(ctx.tracer, "protocols.ds");
  const auto chains = bayChains(net);
  hp::DominatingSetProtocol ds(sim, chains, kProtocolSeed, retryPtr);
  r.dsRounds = ds.run();
  out.bayDominatingSets.resize(chains.size());
  for (std::size_t c = 0; c < chains.size(); ++c) {
    out.bayDominatingSets[c] = ds.dominatingSet(c);
    if (chains[c].size() == 1 && out.bayDominatingSets[c].empty()) {
      out.bayDominatingSets[c] = chains[c];
    }
  }
  r.dsMs = 1e-3 * s5.stop();
  r.outcome = outcomeOf(out, std::move(rings));
  return r;
}

}  // namespace

PreprocessPhase::PreprocessPhase(RunContext& ctx, const hybrid::core::HybridNetwork& net)
    : ctx_(ctx), net_(net), plan_(faultPlan(ctx)) {}

void PreprocessPhase::slice(double seconds) {
  // One run can outlast a slice; the phase keeps to its share over the
  // whole run, and the gate needs two runs to compare.
  budget_ += seconds;
  while (spent_ < budget_ || runs_.size() < 2) {
    const auto t0 = Clock::now();
    runs_.push_back(runPipeline(ctx_, net_, plan_));
    spent_ += secondsSince(t0);
  }
}

void PreprocessPhase::finish() {
  const double n = static_cast<double>(net_.udg().numNodes());
  std::vector<double> secs;
  std::vector<double> cpuSecs;
  for (const auto& r : runs_) {
    secs.push_back(r.seconds);
    cpuSecs.push_back(r.cpuSeconds);
  }
  const auto& rep = runs_.front().report;

  // Gate (untimed): every repetition is identical; the LDel edge set
  // equals the oracle's; rings and ring hulls equal the fault-free run's;
  // every bay's dominating set dominates its chain. These are the phases
  // that run under the ARQ transport. The dominating sets themselves may
  // differ from the fault-free run: the protocol's coins are keyed on the
  // simulator round, which loss shifts. The overlay tree and the hull
  // distribution have no ARQ, so what hull nodes learn under loss is
  // reported, not gated.
  for (std::size_t i = 1; i < runs_.size(); ++i) {
    ctx_.attempt();
    if (!(runs_[i].outcome == runs_.front().outcome)) {
      ctx_.fail("preprocessing run " + std::to_string(i) + " differs from run 0");
    }
  }
  const Outcome& result = runs_.front().outcome;
  const Outcome faultFree =
      plan_.active() ? runPipeline(ctx_, net_, hs::FaultPlan{}).outcome : result;
  ctx_.attempt();
  if (result.rings != faultFree.rings || result.hulls != faultFree.hulls) {
    ctx_.fail("preprocessing rings / ring hulls differ from the fault-free run");
  }
  const auto chains = bayChains(net_);
  long dsDiffer = 0;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    ctx_.attempt();
    const auto& set = c < result.dominatingSets.size() ? result.dominatingSets[c]
                                                       : std::vector<int>{};
    if (!dominatesChain(chains[c], set)) {
      ctx_.fail("bay " + std::to_string(c) + ": distributed set does not dominate its chain");
    }
    if (c >= faultFree.dominatingSets.size() || set != faultFree.dominatingSets[c]) ++dsDiffer;
  }
  const PhaseReplay replay = replayPhases(ctx_, net_, plan_);
  auto oracleEdges = net_.ldel().edges();
  auto edges = replay.ldelEdges;
  std::sort(oracleEdges.begin(), oracleEdges.end());
  std::sort(edges.begin(), edges.end());
  ctx_.attempt(2);
  if (edges != oracleEdges) ctx_.fail("distributed LDel edge set differs from the oracle");
  if (!(replay.outcome == result)) {
    ctx_.fail("phase-by-phase preprocessing differs from the pipeline");
  }

  const double hullKnown = hullKnownShare(result, faultFree);
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "preprocess: %zu runs, loss %.2f, %d rounds, %ld messages, %ld retransmissions, "
                "%ld dropped; %ld of %zu bay dominating sets differ from the fault-free run; "
                "hull nodes learned %.1f%% of the hull sites",
                runs_.size(), ctx_.spec.preprocessLoss, rep.totalRounds(), rep.totalMessages,
                rep.retransmissions, runs_.front().dropped, dsDiffer, chains.size(),
                100.0 * hullKnown);
  ctx_.note(buf);
  if (!ctx_.tracing()) {
    ctx_.endToEnd("preprocess_rounds", rep.totalRounds(), "rounds");
    ctx_.endToEnd("messages_per_node", static_cast<double>(rep.totalMessages) / n, "msgs/node");
    return;
  }
  const double messages = std::max(1.0, static_cast<double>(rep.totalMessages));
  ctx_.perLayer("protocols.ldel_ms", replay.ldelMs, "ms");
  ctx_.perLayer("protocols.ring_ms", replay.ringMs, "ms");
  ctx_.perLayer("protocols.tree_ms", replay.treeMs, "ms");
  ctx_.perLayer("protocols.hull_ms", replay.hullMs, "ms");
  ctx_.perLayer("protocols.ds_ms", replay.dsMs, "ms");
  ctx_.perLayer("protocols.ldel_rounds", replay.ldelRounds, "rounds");
  ctx_.perLayer("protocols.ring_rounds", replay.ringRounds, "rounds");
  ctx_.perLayer("protocols.tree_rounds", replay.treeRounds, "rounds");
  ctx_.perLayer("protocols.hull_rounds", replay.hullRounds, "rounds");
  ctx_.perLayer("protocols.ds_rounds", replay.dsRounds, "rounds");
  ctx_.perLayer("protocols.stage_sum_ms", replay.sumMs(), "ms");
  ctx_.perLayer("protocols.preprocess_ms", 1e3 * median(secs), "ms");
  ctx_.perLayer("protocols.preprocess_cpu_ms", 1e3 * median(cpuSecs), "ms");
  ctx_.perLayer("sim.ns_per_message", 1e9 * median(secs) / messages, "ns");
  ctx_.perLayer("sim.max_words_per_node", static_cast<double>(rep.maxWordsPerNode), "words");
  ctx_.perLayer("sim.dropped", static_cast<double>(runs_.front().dropped), "count");
  ctx_.perLayer("protocols.ds_differ_share",
               chains.empty() ? 0.0 : static_cast<double>(dsDiffer) / chains.size(), "share");
  ctx_.perLayer("protocols.hull_known_share", hullKnown, "share");
  ctx_.perLayer("reliable.retransmit_ratio", static_cast<double>(rep.retransmissions) / messages,
               "ratio");
  std::snprintf(buf, sizeof buf,
                "protocol phases: pipeline %.1f ms beside phase sum %.1f ms (gap %.1f ms)",
                1e3 * median(secs), replay.sumMs(), 1e3 * median(secs) - replay.sumMs());
  ctx_.note(buf);
}

}  // namespace perfbench
