// Sample summaries for the serving benchmark.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace servebench {

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; the
/// same definition as numpy's default and Python's statistics "inclusive".
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(v.size() - 1, lo + 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// A percentile is reported only when at least this many samples lie beyond
/// it; below that the "percentile" is an order statistic near the maximum.
inline constexpr size_t kMinTailSamples = 10;

/// True when `n` samples support percentile `q` (at least kMinTailSamples
/// samples strictly above it).
inline bool Supports(size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= static_cast<double>(kMinTailSamples);
}

}  // namespace servebench
