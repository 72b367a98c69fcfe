// SPDX-License-Identifier: Apache-2.0
#include "common/stats.hpp"

#include <algorithm>

namespace mp3d {

double percentile(const std::vector<u64>& samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  const double rank = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Select on a scratch copy: callers (per-window telemetry gauges, the QoS
  // controller) reuse their sample buffers and must not see them reordered.
  std::vector<u64> scratch(samples);
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(lo), scratch.end());
  const double at_lo = static_cast<double>(scratch[lo]);
  double at_hi = at_lo;
  if (hi != lo) {
    at_hi = static_cast<double>(
        *std::min_element(scratch.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                          scratch.end()));
  }
  return at_lo * (1.0 - frac) + at_hi * frac;
}

}  // namespace mp3d
