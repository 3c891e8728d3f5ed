#pragma once

// Summary statistics used by every metric the benchmark prints.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// A tail percentile as actually reported: the value, the percentile it
/// really is, and the sample count behind it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  ///< In [0, 1].
  std::size_t samples = 0;
};

/// Samples that must lie above a reported tail value for it to mean more
/// than one or two outliers.
constexpr std::size_t kTailSamplesBeyond = 10;

/// The nearest-rank `wanted` percentile, lowered to the highest percentile
/// that still has at least kTailSamplesBeyond samples above it, and never
/// below the upper median. With fewer than 2 * kTailSamplesBeyond + 1 samples the
/// tail therefore degrades to the median; the caller prints the percentile
/// it got.
inline Tail tail(std::vector<double> v, double wanted) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t idx = static_cast<std::size_t>(std::ceil(wanted * static_cast<double>(n)));
  idx = idx == 0 ? 0 : idx - 1;
  if (n > kTailSamplesBeyond) idx = std::min(idx, n - 1 - kTailSamplesBeyond);
  idx = std::max(idx, n / 2);
  idx = std::min(idx, n - 1);
  t.value = v[idx];
  t.percentile = static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

}  // namespace perfbench
