// SPDX-License-Identifier: Apache-2.0
// A named operating point for energy accounting: one physical
// implementation (2D or Macro-3D flow x SPM capacity) of a cluster shape,
// running at the frequency that implementation achieves. The simulator is
// flow-agnostic — the same cycle counts serve both flows — so converting a
// run into joules means picking the operating point whose physical
// parameters (SRAM access energy, wire lengths, frequency, leakage) the
// run should be costed under.
#pragma once

#include <string>

#include "arch/params.hpp"
#include "phys/group_flow.hpp"
#include "phys/tech.hpp"
#include "phys/tile_flow.hpp"

namespace mp3d::power {

struct OperatingPoint {
  std::string name;                     ///< e.g. "3D-1MiB"
  phys::Flow flow = phys::Flow::k2D;
  u64 spm_capacity = 0;                 ///< cluster-wide SPM bytes
  double freq_ghz = 0.0;                ///< the implementation's eff. frequency
  arch::ClusterConfig cfg;              ///< the cluster shape implemented
  phys::TileImpl tile;
  phys::GroupImpl group;
  phys::Technology tech;
};

/// Implement `cfg` under `flow` and package the result as an operating
/// point. Works for any cluster shape `implement_group` accepts (at least
/// a 2x2 tile grid per group), so tests can use scaled-down clusters.
OperatingPoint make_operating_point(
    const arch::ClusterConfig& cfg, phys::Flow flow,
    const phys::Technology& tech = phys::Technology::node28());

}  // namespace mp3d::power
