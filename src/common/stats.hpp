// SPDX-License-Identifier: Apache-2.0
// Order-statistic helper for latency samples: the QoS controller's window
// p99 and the gmem scenarios' scalar p50/p99 columns.
#pragma once

#include <vector>

#include "common/units.hpp"

namespace mp3d {

/// Percentile of `samples` by linear interpolation between order statistics
/// (the rank is q*(n-1); fractional ranks blend the two neighbours). The
/// caller's vector is left untouched — selection runs on an internal copy —
/// so per-window telemetry gauges can reuse the same sample buffer. Returns
/// 0 for an empty vector and the sole value for n == 1. `q` is clamped into
/// [0, 1].
double percentile(const std::vector<u64>& samples, double q);

}  // namespace mp3d
