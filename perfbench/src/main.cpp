// perfbench: the repository benchmark. One run executes one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// and prints, last on stdout, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0,
// the per-layer metrics of the traced run with --trace 1. Exit code 0 only
// when every checked output was correct.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/metrics.hpp"
#include "phases.hpp"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-file <path>]\nworkloads:",
               why);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string traceFile;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      workload = val;
    } else if (key == "--seed") {
      seed = std::atoll(val);
    } else if (key == "--seconds") {
      seconds = std::atof(val);
    } else if (key == "--trace") {
      trace = std::atoi(val);
    } else if (key == "--trace-file") {
      traceFile = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  const auto spec = findWorkload(workload);
  if (!spec) return usage(("unknown workload '" + workload + "'").c_str());
  if (seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage("--seed, --seconds and --trace are required");
  }

  RunContext ctx(*spec, static_cast<std::uint64_t>(seed), trace == 1);
  // The traced run also reads the program's own observability counters.
  if (ctx.tracing()) hybrid::obs::setEnabled(true);

  const CpuTicks ticksBefore = cpuTicks();
  std::vector<hybrid::scenario::Scenario> deployments;
  for (int d = 0; d < kDeployments; ++d) {
    const std::uint64_t seed =
        d == 0 ? ctx.seed : deriveSeed(ctx.seed, 50 + static_cast<std::uint64_t>(d));
    deployments.push_back(makeDeployment(spec->deploymentN, seed));
  }
  const Services services = setupServices(ctx, deployments);
  const auto epoch0 = services.front()->snapshot();
  qualityCheck(ctx, services);
  // Churn mutates its deployment (the first), so it gets a service of its own.
  hybrid::serve::RouteService churnService(deployments.front(), hybrid::serve::ServiceOptions{});

  // Rounds of about kRoundSeconds, each giving every phase its share.
  const int rounds = std::max(1, static_cast<int>(std::lround(seconds / kRoundSeconds)));
  const double round = seconds / rounds;
  ReadPhase reads(ctx, services);
  BatchPhase batches(ctx, services);
  PreprocessPhase preprocess(ctx, *epoch0->net);
  ChurnPhase churn(ctx, churnService, round * spec->churnShare, rounds);
  for (int r = 0; r < rounds; ++r) {
    reads.slice(round * spec->readShare);
    batches.slice(round * spec->batchShare);
    preprocess.slice(round * spec->preprocessShare);
    churn.slice();
  }
  reads.finish();
  batches.finish();
  preprocess.finish();
  churn.finish();
  // Time the hypervisor gave to other guests slows every timing above;
  // printed so a slow run can be told from a slow program.
  const CpuTicks ticksAfter = cpuTicks();
  if (ticksAfter.total > ticksBefore.total) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "host steal: %.1f%% of CPU time during the run",
                  100.0 * (ticksAfter.steal - ticksBefore.steal) /
                      (ticksAfter.total - ticksBefore.total));
    ctx.note(buf);
  }

  if (ctx.tracing()) {
    // Span names start with these layers (bench = the benchmark's own
    // replay roots); a layer with no spans in this run reports 0.
    const auto self = ctx.tracer.selfMsByLayer();
    for (const char* layer : {"abstraction", "bench", "chew", "core", "delaunay", "graph",
                              "holes", "overlay", "protocols", "routing", "serve"}) {
      const auto it = self.find(layer);
      ctx.perLayer(std::string("trace.self_ms.") + layer, it == self.end() ? 0.0 : it->second,
                   "ms");
    }
    const auto spans = ctx.tracer.spans();
    ctx.perLayer("trace.spans", static_cast<double>(spans.size()), "count");
    if (!traceFile.empty() && !ctx.tracer.writeJsonLines(traceFile)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", traceFile.c_str());
      return 1;
    }
  }

  std::printf("workload %s seed %lld seconds %g trace %d: %s\n", spec->name.c_str(), seed,
              seconds, trace, spec->why.c_str());
  for (const auto& line : ctx.notes()) std::printf("  %s\n", line.c_str());
  const auto& metrics = ctx.tracing() ? ctx.perLayerMetrics() : ctx.endToEndMetrics();
  for (const auto& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  attempted %ld, failed %ld\n", ctx.attempted(), ctx.failed());

  const bool correct = ctx.failed() == 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(ctx.attempted()) +
                     ", \"failed\": " + std::to_string(ctx.failed()) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + jsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
