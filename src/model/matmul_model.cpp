// SPDX-License-Identifier: Apache-2.0
#include "model/matmul_model.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace mp3d::model {

CycleBreakdown matmul_cycles(const MatmulWorkload& w, const MatmulCalibration& cal) {
  MP3D_CHECK(cal.t == w.t, "calibration tile dim mismatch");
  MP3D_CHECK(w.m % w.t == 0, "matrix dim must be a multiple of the tile dim");
  const double nt = static_cast<double>(w.m / w.t);       // k-chunks per tile
  const double n_out = nt * nt;                           // output tiles
  const double tile_words = static_cast<double>(w.t) * w.t;

  const double mem_chunk = 2.0 * tile_words * 4.0 / w.bw_bytes_per_cycle +
                           cal.mem_overhead;
  const u32 nblk = (w.t / 4) * (w.t / 4);
  // The slowest core carries ceil(nblk / cores) blocks.
  const double blocks_pc = std::ceil(static_cast<double>(nblk) / w.cores);
  const double compute_chunk = cal.compute_fixed + blocks_pc * cal.per_block_cycles;
  const double store_tile = tile_words * 4.0 / w.bw_bytes_per_cycle +
                            cal.store_overhead;

  CycleBreakdown out;
  out.memory = n_out * nt * mem_chunk;
  out.compute = n_out * nt * compute_chunk;
  out.store = n_out * store_tile;
  return out;
}

}  // namespace mp3d::model
