#pragma once

// Open-loop accounting for the churn phase: updates are due on a fixed
// schedule whether or not the updater keeps up, so every lag is measured
// from the update's due time (a stalled swap delays every later update).

#include <cstddef>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Due time (seconds from the phase start) of update `i` at `rate` per
/// second. The first update is due one interval after the start.
inline double updateDue(std::size_t i, double rate) {
  return static_cast<double>(i + 1) / rate;
}

/// Due time of batch `k` of `batchSize` updates: the due time of its last
/// update, the moment the batch is complete and can be handed over.
inline double batchDue(std::size_t k, std::size_t batchSize, double rate) {
  return updateDue((k + 1) * batchSize - 1, rate);
}

struct OpenLoopReport {
  std::vector<double> lagMs;         ///< Per update: publication - due.
  std::vector<double> generatorLateMs;  ///< Per batch: hand-over - due.
  double backlogGrowthMs = 0.0;  ///< Median lag, last quarter minus first.
  bool backlogGrowing = false;
};

/// `handedS[k]` is when the generator handed batch k over, `publishedS[k]`
/// when the epoch carrying it was published (both seconds from the phase
/// start). The backlog counts as growing when the median lag of the last
/// quarter of updates exceeds that of the first quarter by more than two
/// batch intervals — the queue held at least two more batches at the end.
inline OpenLoopReport accountOpenLoop(const std::vector<double>& handedS,
                                      const std::vector<double>& publishedS,
                                      std::size_t batchSize, double rate) {
  OpenLoopReport r;
  const std::size_t batches = std::min(handedS.size(), publishedS.size());
  for (std::size_t k = 0; k < batches; ++k) {
    r.generatorLateMs.push_back(1e3 * (handedS[k] - batchDue(k, batchSize, rate)));
    for (std::size_t j = 0; j < batchSize; ++j) {
      const double due = updateDue(k * batchSize + j, rate);
      r.lagMs.push_back(1e3 * (publishedS[k] - due));
    }
  }
  const std::size_t q = r.lagMs.size() / 4;
  if (q > 0) {
    const std::vector<double> first(r.lagMs.begin(), r.lagMs.begin() + static_cast<long>(q));
    const std::vector<double> last(r.lagMs.end() - static_cast<long>(q), r.lagMs.end());
    r.backlogGrowthMs = median(last) - median(first);
    const double batchIntervalMs = 1e3 * static_cast<double>(batchSize) / rate;
    r.backlogGrowing = r.backlogGrowthMs > 2.0 * batchIntervalMs;
  }
  return r;
}

}  // namespace perfbench
