// SPDX-License-Identifier: Apache-2.0
// Top-level physical implementation API: run the 2D or Macro-3D flow for a
// MemPool configuration and collect tile + group results (the paper's
// Tables I and II).
#pragma once

#include <vector>

#include "phys/group_flow.hpp"
#include "phys/paper_ref.hpp"

namespace mp3d::phys {

struct ImplConfig {
  Flow flow = Flow::k2D;
  u64 spm_capacity = MiB(1);
};

struct ImplResult {
  ImplConfig config;
  TileImpl tile;
  GroupImpl group;
};

/// Implement one configuration on the paper's cluster shape.
ImplResult implement(const ImplConfig& config,
                     const Technology& tech = Technology::node28());

/// The paper's eight configurations ({2D,3D} x {1,2,4,8} MiB), 2D first.
std::vector<ImplConfig> paper_configs();

}  // namespace mp3d::phys
