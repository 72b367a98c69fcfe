// SPDX-License-Identifier: Apache-2.0
// Shared helpers for the table/figure regeneration benches. The benches
// themselves run through the experiment engine (src/exp/suite.hpp), which
// owns CSV/JSON output; what remains here are formatting helpers and the
// sanitizer probe the wall-clock gates consult.
#pragma once

#include <string>

#include "common/table.hpp"
#include "common/units.hpp"
#include "exp/suite.hpp"

namespace mp3d::bench {

inline std::string cap_name(u64 capacity) {
  return std::to_string(capacity / (1024 * 1024)) + " MiB";
}

/// True when this binary was built with ASan/TSan/MSan/UBSan. Sanitized
/// builds run several times slower with nonuniform per-component cost, so
/// wall-clock gates (overhead bounds, throughput floors) must skip under
/// them; correctness gates (bit-identical counters) still run.
inline constexpr bool sanitizers_active() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_MEMORY__) || defined(MP3D_SANITIZERS)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace mp3d::bench
