// SPDX-License-Identifier: Apache-2.0
// Simulation-driven Figure 8/9 scenario definitions: one scenario per
// paper SPM capacity point, each running the paper's representative
// workload (the tiled matmul) scaled to its capacity on the cycle-accurate
// simulator and costing the measured event counters under both the 2D and
// 3D operating points through src/power/.
//
// Workload scaling: the paper fills each capacity with the largest tile
// (t = 256/384/544/800 for 1/2/4/8 MiB). Simulating those tiles on the
// 256-core cluster is far too slow, so each scenario uses the paper tile
// scaled down 4x and rounded to the simulator's tile granularity
// (t % 32 == 0): t = 64/96/128/192, i.e. every capacity runs tiles
// proportional to its SPM — the same relative working sets as the paper —
// with m = 2t (two k-chunks, the double-buffer overlap window).
//
// The simulation-derived 3D-over-2D gains are cross-checked against the
// analytical CoExplorer curves at every capacity; the measured error is
// ~1 pp (see bench/fig8_fig9_energy), gated at the documented
// core::kEnergyCrossCheckTolerance (5 pp).
#pragma once

#include "common/units.hpp"
#include "exp/scenario.hpp"

namespace mp3d::exp {

/// The four paper capacity points, 1/2/4/8 MiB.
std::vector<u64> paper_capacities();

/// Scenario name for a capacity point, e.g. "cap=4MiB".
std::string energy_scenario_name(u64 capacity);

/// The scaled matmul tile dimension simulated at `capacity`.
u32 scaled_matmul_tile(u64 capacity, bool smoke);

/// Build the scenario for one capacity point. Metrics set by the run:
///   t, m, macs, cycles,
///   freq_2d_ghz / freq_3d_ghz, runtime_us_2d / runtime_us_3d,
///   cluster_uj_2d / cluster_uj_3d, total_uj_2d / total_uj_3d,
///   edp_cluster_2d / edp_cluster_3d           [nJ*us, on-die]
///   gain_eff_3d2d_sim / _model / _paper       [3D-over-2D efficiency]
///   var_edp_3d2d_sim / _model / _paper        [3D-over-2D EDP]
/// and one result row per flow carrying both figures' columns (Fig. 8
/// energy, Fig. 9 EDP: two views of the same sweep).
Scenario make_energy_capacity_scenario(u64 capacity, bool smoke);

/// Register all four capacity points.
void register_energy_scenarios(Registry& registry, bool smoke);

}  // namespace mp3d::exp
