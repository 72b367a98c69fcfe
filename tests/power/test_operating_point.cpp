// SPDX-License-Identifier: Apache-2.0
// Operating points and derived per-event energies: the 2D and 3D points
// must differ exactly where the physical flows differ (frequency, hop
// energy, switched logic, leakage) and agree where they share hardware
// (SRAM macros, off-chip channel).
#include <gtest/gtest.h>

#include "power/energy_model.hpp"

namespace mp3d::power {
namespace {

TEST(OperatingPoint, PaperPointsCoverBothFlowsAndAllCapacities) {
  for (const u64 mib : {1, 2, 4, 8}) {
    const arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(mib));
    const OperatingPoint op_2d = make_operating_point(cfg, phys::Flow::k2D);
    const OperatingPoint op_3d = make_operating_point(cfg, phys::Flow::k3D);
    EXPECT_EQ(op_2d.flow, phys::Flow::k2D);
    EXPECT_EQ(op_3d.flow, phys::Flow::k3D);
    for (const OperatingPoint& op : {op_2d, op_3d}) {
      EXPECT_EQ(op.spm_capacity, MiB(mib));
      EXPECT_GT(op.freq_ghz, 0.5);
      EXPECT_LT(op.freq_ghz, 1.5);
      EXPECT_FALSE(op.name.empty());
    }
    // 3D runs faster than 2D at every capacity (the paper's Figure 7 driver).
    EXPECT_GT(op_3d.freq_ghz, op_2d.freq_ghz) << op_2d.name;
  }
}

TEST(EnergyModel, FlowsDifferExactlyWherePhysSays) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(1));
  const EnergyModel em_2d = derive_energy_model(make_operating_point(cfg, phys::Flow::k2D));
  const EnergyModel em_3d = derive_energy_model(make_operating_point(cfg, phys::Flow::k3D));
  // Shared hardware: identical SRAM macros and off-chip channel.
  EXPECT_DOUBLE_EQ(em_2d.spm_read_pj, em_3d.spm_read_pj);
  EXPECT_DOUBLE_EQ(em_2d.spm_write_pj, em_3d.spm_write_pj);
  EXPECT_DOUBLE_EQ(em_2d.icache_hit_pj, em_3d.icache_hit_pj);
  EXPECT_DOUBLE_EQ(em_2d.gmem_byte_pj, em_3d.gmem_byte_pj);
  // Physical differences: shorter folded wires, lighter switched logic.
  EXPECT_LT(em_3d.noc_local_hop_pj, em_2d.noc_local_hop_pj);
  EXPECT_LT(em_3d.noc_global_hop_pj, em_2d.noc_global_hop_pj);
  EXPECT_LT(em_3d.instr_pj, em_2d.instr_pj);
  EXPECT_LT(em_3d.leakage_mw, em_2d.leakage_mw);
  EXPECT_GT(em_3d.freq_ghz, em_2d.freq_ghz);
}

TEST(EnergyModel, AllEventEnergiesArePositive) {
  for (const phys::Flow flow : {phys::Flow::k2D, phys::Flow::k3D}) {
    for (const u64 mib : {1, 2, 4, 8}) {
      const OperatingPoint op =
          make_operating_point(arch::ClusterConfig::mempool(MiB(mib)), flow);
      const EnergyModel em = derive_energy_model(op);
      EXPECT_GT(em.spm_read_pj, 0.0) << op.name;
      EXPECT_GT(em.spm_write_pj, em.spm_read_pj) << op.name;
      EXPECT_GT(em.dma_word_pj, 0.0) << op.name;
      EXPECT_GT(em.icache_hit_pj, 0.0) << op.name;
      EXPECT_GT(em.icache_refill_pj, em.icache_hit_pj) << op.name;
      EXPECT_GT(em.noc_local_hop_pj, 0.0) << op.name;
      EXPECT_GT(em.noc_global_hop_pj, em.noc_local_hop_pj) << op.name;
      EXPECT_GT(em.gmem_byte_pj, 0.0) << op.name;
      EXPECT_GT(em.instr_pj, 0.0) << op.name;
      EXPECT_GT(em.leakage_mw, 0.0) << op.name;
      EXPECT_GT(em.background_mw, 0.0) << op.name;
    }
  }
}

TEST(EnergyModel, ScaledDownClusterPaysScaledDownStaticPower) {
  // A mini cluster (4 tiles, 1 group) must not be charged the full
  // cluster's leakage: static terms scale with the simulated shape.
  const arch::ClusterConfig mini = arch::ClusterConfig::mini();
  const arch::ClusterConfig full = arch::ClusterConfig::mempool(MiB(1));
  const EnergyModel em_mini =
      derive_energy_model(make_operating_point(mini, phys::Flow::k2D));
  const EnergyModel em_full =
      derive_energy_model(make_operating_point(full, phys::Flow::k2D));
  EXPECT_LT(em_mini.leakage_mw, em_full.leakage_mw / 4.0);
  EXPECT_LT(em_mini.background_mw, em_full.background_mw / 4.0);
}

}  // namespace
}  // namespace mp3d::power
