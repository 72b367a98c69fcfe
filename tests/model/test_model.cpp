// SPDX-License-Identifier: Apache-2.0
// Cycle model + live calibration against the simulator.
#include <gtest/gtest.h>

#include <vector>

#include "kernels/matmul.hpp"
#include "model/calibration.hpp"
#include "model/matmul_model.hpp"

namespace mp3d::model {
namespace {

TEST(MatmulModel, MemoryPhaseScalesInverselyWithBandwidth) {
  const MatmulCalibration cal = default_calibration(256);
  MatmulWorkload w;
  w.m = 326400;
  w.t = 256;
  w.bw_bytes_per_cycle = 4;
  const double slow = matmul_cycles(w, cal).memory;
  w.bw_bytes_per_cycle = 16;
  const double fast = matmul_cycles(w, cal).memory;
  EXPECT_NEAR(slow / fast, 4.0, 0.05);  // overheads are small at this scale
}

TEST(MatmulModel, ComputeIndependentOfBandwidth) {
  const MatmulCalibration cal = default_calibration(256);
  MatmulWorkload w;
  w.m = 326400;
  w.t = 256;
  w.bw_bytes_per_cycle = 4;
  const double c1 = matmul_cycles(w, cal).compute;
  w.bw_bytes_per_cycle = 64;
  EXPECT_DOUBLE_EQ(c1, matmul_cycles(w, cal).compute);
}

TEST(MatmulModel, LargerTilesReduceTotalLoads) {
  // Total memory cycles fall as 1/t (each element loaded M/t times).
  MatmulWorkload w;
  w.m = 326400;
  w.bw_bytes_per_cycle = 16;
  w.t = 256;
  const double m256 = matmul_cycles(w, default_calibration(256)).memory;
  w.t = 800;
  const double m800 = matmul_cycles(w, default_calibration(800)).memory;
  EXPECT_NEAR(m256 / m800, 800.0 / 256.0, 0.2);
}

TEST(MatmulModel, RejectsMismatchedCalibration) {
  MatmulWorkload w;
  w.t = 256;
  EXPECT_THROW(matmul_cycles(w, default_calibration(384)), std::invalid_argument);
}

TEST(Figure6Sweep, MonotoneInCapacityAndBandwidth) {
  // The grid bench/fig6_cycle_speedup evaluates: M = 326400, the tile dim
  // that fills each capacity, the pre-measured calibration of that tile.
  const std::vector<u64> capacities = {MiB(1), MiB(2), MiB(4), MiB(8)};
  auto cycles = [](double bw, u64 capacity) {
    MatmulWorkload w;
    w.m = 326400;
    w.t = kernels::MatmulParams::paper_tile_dim(capacity);
    w.bw_bytes_per_cycle = bw;
    return matmul_cycles(w, default_calibration(w.t)).total();
  };
  const double baseline = cycles(4, MiB(1));
  for (const double bw : {4.0, 8.0, 16.0, 32.0, 64.0}) {
    for (std::size_t i = 0; i < capacities.size(); ++i) {
      const double c = cycles(bw, capacities[i]);
      EXPECT_LE(c, baseline * (1.0 + 1e-9)) << bw << " " << capacities[i];
      if (i > 0) {
        EXPECT_LT(c, cycles(bw, capacities[i - 1])) << bw << " " << capacities[i];
      }
    }
  }
  // Paper headline: ~+43 % @4 B/c, ~+16 % @16 B/c for 8 MiB over 1 MiB.
  const double sp4 = cycles(4, MiB(1)) / cycles(4, MiB(8)) - 1.0;
  const double sp16 = cycles(16, MiB(1)) / cycles(16, MiB(8)) - 1.0;
  EXPECT_NEAR(sp4, 0.43, 0.12);
  EXPECT_NEAR(sp16, 0.16, 0.06);
  EXPECT_GT(sp4, sp16);  // lower bandwidth -> larger capacity benefit
}

TEST(Calibration, LiveMeasurementOnMiniCluster) {
  // Calibrate on the 16-core cluster at t=32 (4 blocks per core) and check
  // the fit is sane: eta in a plausible Snitch range, overheads positive.
  arch::ClusterConfig cfg = arch::ClusterConfig::mini();
  CalibrationOptions opt;
  opt.blocks_hi = 3;
  const MatmulCalibration cal = calibrate_matmul(cfg, 32, opt);
  EXPECT_GT(cal.per_block_cycles, 16.0 * 32.0 / 1.0);  // >= 1 MAC/cycle bound
  EXPECT_GT(cal.eta(), 0.2);
  EXPECT_LT(cal.eta(), 0.8);
  EXPECT_GE(cal.compute_fixed, 0.0);
  EXPECT_GE(cal.mem_overhead, 0.0);
}

TEST(Calibration, DefaultsCoverPaperTiles) {
  for (const u32 t : {256U, 384U, 544U, 800U}) {
    const MatmulCalibration cal = default_calibration(t);
    EXPECT_EQ(cal.t, t);
    EXPECT_GT(cal.eta(), 0.3);
    EXPECT_LT(cal.eta(), 0.7);
  }
}

}  // namespace
}  // namespace mp3d::model
