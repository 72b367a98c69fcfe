// SPDX-License-Identifier: Apache-2.0
#include "power/operating_point.hpp"

#include "common/strings.hpp"

namespace mp3d::power {

OperatingPoint make_operating_point(const arch::ClusterConfig& cfg, phys::Flow flow,
                                    const phys::Technology& tech) {
  OperatingPoint op;
  op.flow = flow;
  op.spm_capacity = cfg.spm_capacity;
  op.cfg = cfg;
  op.tech = tech;
  op.group = phys::implement_group(cfg, tech, flow);
  op.tile = op.group.tile;
  op.freq_ghz = op.group.eff_freq_ghz;
  op.name = strfmt("%s-%lluMiB", phys::flow_name(flow),
                   static_cast<unsigned long long>(cfg.spm_capacity / MiB(1)));
  if (cfg.spm_capacity < MiB(1)) {
    op.name = strfmt("%s-%lluKiB", phys::flow_name(flow),
                     static_cast<unsigned long long>(cfg.spm_capacity / KiB(1)));
  }
  return op;
}

}  // namespace mp3d::power
