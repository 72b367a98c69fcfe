// SPDX-License-Identifier: Apache-2.0
// The rule that ends a run without eoc: the deadlock watchdog shared by
// Cluster::run and sys::System::run_jobs, so both drivers agree
// cycle-for-cycle.
//
// The driver hands it a monotone activity witness after every stepped
// cycle. When the witness has not moved for kWindow cycles the watchdog
// asks the driver's wake oracle: a finite answer (a slow gmem response, a
// DMA retire, an in-flight flit) is a long wait, not a hang, and re-arms
// the window; only kNever is a deadlock verdict. horizon() caps a
// fast-forward jump at the verdict cycle, so a skipped span ends where a
// ticked run would have checked.
#pragma once

#include <algorithm>

#include "sim/types.hpp"

namespace mp3d::sim {

class Watchdog {
 public:
  /// Cycles without activity before the wake oracle is consulted.
  static constexpr u64 kWindow = 20000;

  void reset() {
    last_value_ = 0;
    last_cycle_ = 0;
  }

  /// Last cycle a fast-forward jump may reach: the run's max_cycles or the
  /// next watchdog check, whichever comes first.
  Cycle horizon(Cycle max_cycles) const {
    return std::min<Cycle>(max_cycles, last_cycle_ + kWindow);
  }

  /// Observe the activity witness after cycle `now` has been stepped;
  /// true is the deadlock verdict. `next_wake` (() -> Cycle) is called
  /// only once a full window has passed without activity.
  template <typename WakeOracle>
  bool deadlocked(u64 activity, Cycle now, const WakeOracle& next_wake) {
    if (activity != last_value_) {
      last_value_ = activity;
      last_cycle_ = now;
      return false;
    }
    if (now - last_cycle_ < kWindow) {
      return false;
    }
    if (next_wake() != kNever) {
      last_cycle_ = now;
      return false;
    }
    return true;
  }

 private:
  u64 last_value_ = 0;
  Cycle last_cycle_ = 0;
};

}  // namespace mp3d::sim
