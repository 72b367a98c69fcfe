// SPDX-License-Identifier: Apache-2.0
#include "phys/flow.hpp"

#include "arch/params.hpp"

namespace mp3d::phys {

ImplResult implement(const ImplConfig& config, const Technology& tech) {
  const arch::ClusterConfig cfg = arch::ClusterConfig::mempool(config.spm_capacity);
  ImplResult result;
  result.config = config;
  result.group = implement_group(cfg, tech, config.flow);
  result.tile = result.group.tile;
  return result;
}

std::vector<ImplConfig> paper_configs() {
  std::vector<ImplConfig> configs;
  for (const Flow flow : {Flow::k2D, Flow::k3D}) {
    for (const u64 mib : {1, 2, 4, 8}) {
      configs.push_back(ImplConfig{flow, MiB(mib)});
    }
  }
  return configs;
}

}  // namespace mp3d::phys
