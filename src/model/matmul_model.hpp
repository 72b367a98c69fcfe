// SPDX-License-Identifier: Apache-2.0
// The paper's phase-based cycle-count model for the tiled matmul (§VI.A):
//
//   per output tile (M/t per axis, squared):
//     M/t k-chunks, each: memory phase (2*t^2*4 B at bw B/cycle, plus the
//     measured overhead) followed by a compute phase (calibrated);
//     one store phase (t^2*4 B) per output tile.
//
// Each input element is loaded exactly M/t times; larger t means more
// reuse and fewer, longer phases (less repeated static overhead) — the two
// effects behind Figure 6.
#pragma once

#include "model/calibration.hpp"

namespace mp3d::model {

struct MatmulWorkload {
  u64 m = 326400;  ///< the paper's matrix dimension (lcm of tile sizes)
  u32 t = 256;
  u32 cores = 256;
  double bw_bytes_per_cycle = 16.0;
};

struct CycleBreakdown {
  double memory = 0.0;
  double compute = 0.0;
  double store = 0.0;
  double total() const { return memory + compute + store; }
};

/// Evaluate the model. `cal.t` must equal `w.t`.
CycleBreakdown matmul_cycles(const MatmulWorkload& w, const MatmulCalibration& cal);

}  // namespace mp3d::model
