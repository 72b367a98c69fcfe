// SPDX-License-Identifier: Apache-2.0
// Gmem channel-arbiter scenario definitions: the sweep behind
// bench/gmem_arbiter, exercising the bounded-share arbitration of the
// off-chip channel (GmemArbiterConfig) over {share bound} x {kernel} x
// {bandwidth 4..64 B/cycle}.
//
// Three scenario families:
//   - soak_sat:  a synthetic scalar word stream *oversaturating* the
//     channel against an always-hungry bulk claimant, on a standalone
//     GlobalMemory. Measures the bulk share actually granted — 0 under
//     the legacy absolute-priority policy (the starvation bug), >= the
//     configured minimum under the bounded-share arbiter.
//   - soak_fair: the scalar stream offered at 90 % of its *guaranteed*
//     share (the complement of the bulk bound). Measures scalar queueing
//     latency, which must stay bounded: the arbiter may shift bytes to
//     bulk but never collapses the scalar class.
//   - kern:      real DMA-staged kernels (double-buffered matmul, staged
//     AXPY) on a mini cluster with the share knob threaded through
//     ClusterConfig — verifying results at every setting and pinning that
//     a nonzero guarantee does not regress kernel runtime.
#pragma once

#include <memory>
#include <vector>

#include "arch/params.hpp"
#include "common/units.hpp"
#include "exp/scenario.hpp"

namespace mp3d::obs {
class Telemetry;
}

namespace mp3d::exp {

/// Synthetic channel soak on a standalone GlobalMemory: a scalar word
/// stream (flat, or duty-cycled into bursts) against streaming bulk
/// tenants, under a static bulk share or the adaptive share controller.
/// Both gmem suites run it: gmem_arbiter with a flat load against one
/// always-hungry tenant, gmem_qos with bursts against two tenants.
struct GmemSoakParams {
  u32 bytes_per_cycle = 4;
  u32 latency = 4;
  /// GmemArbiterConfig::bulk_min_pct: the fixed share, or the adaptive
  /// controller's initial share (clamped into its bounds).
  u32 bulk_min_pct = 0;
  u32 deficit_cap_cycles = 8;  ///< GmemArbiterConfig::deficit_cap_cycles

  // Scalar tenant. Loads are percent of the channel's byte rate; the first
  // `burst_cycles` of every `burst_period` offer `burst_load_pct`, the
  // rest `scalar_load_pct` (burst_cycles = 0: a flat load).
  u32 scalar_load_pct = 100;
  u32 burst_period = 4096;
  u32 burst_cycles = 0;
  u32 burst_load_pct = 180;

  /// Streaming bulk tenants, one offered rate each (percent of channel),
  /// served round-robin. A 100 % tenant is always hungry: its backlog
  /// never falls below one cycle of channel bytes.
  std::vector<u32> bulk_rates_pct{100};
  /// When `qos.enabled`, an AdaptiveShareController governs the share.
  arch::AdaptiveShareConfig qos;

  u64 cycles = 20000;
  /// Optional telemetry: windowed counter sampling and/or arbiter event
  /// tracing on the standalone GlobalMemory. When disabled here, an
  /// active obs global request (the suite's --timeline/--trace) applies.
  arch::TelemetryConfig telemetry;
};

struct GmemSoakResult {
  u64 scalar_completed = 0;    ///< scalar responses received
  u64 scalar_backlog_end = 0;  ///< scalar requests still queued at the end
  u64 scalar_bytes = 0;
  u64 bulk_bytes = 0;
  u64 bulk_stall_cycles = 0;
  double scalar_p50 = 0.0;     ///< median enqueue-to-response latency [cycles]
  double scalar_p99 = 0.0;
  double bulk_share = 0.0;     ///< bulk bytes / (cycles x channel rate)
  double channel_util = 0.0;   ///< all bytes / (cycles x channel rate)
  double share_avg_pct = 0.0;  ///< cycle-weighted average live share
  u64 adjustments = 0;         ///< controller share changes (0 for static)
  /// Collected telemetry (null when disabled). Windows carry the gmem
  /// (and qos) counter deltas plus per-window scalar latency p50/p99,
  /// queue depth and live share gauges.
  std::shared_ptr<obs::Telemetry> telemetry;
};

/// Run the soak cycle by cycle. Deterministic (pure integer state).
GmemSoakResult run_gmem_soak(const GmemSoakParams& params);

// ---- suite axes (shared by scenario registration and the bench gates) ----
std::vector<u64> gmem_arbiter_shares(bool smoke);   ///< bulk_min_pct values
std::vector<u64> gmem_arbiter_bws(bool smoke);      ///< channel B/cycle
std::vector<std::string> gmem_arbiter_kernels(bool smoke);

/// Scalar offered load (percent of channel) used by the soak families.
inline constexpr u32 kSoakSaturatedLoadPct = 150;
/// soak_fair offers this fraction (percent) of the scalar class's
/// guaranteed share, keeping its queue stable so latency is meaningful.
inline constexpr u32 kSoakFairLoadFraction = 90;
/// Scalar p99 latency bound gated by soak_fair, in cycles on top of the
/// model's fixed gmem latency.
inline constexpr double kSoakScalarP99Slack = 16.0;

std::string gmem_soak_sat_name(u64 share, u64 bw);
std::string gmem_soak_fair_name(u64 share, u64 bw);
std::string gmem_kernel_name(const std::string& kernel, u64 share, u64 bw);

/// Register every scenario of the gmem_arbiter suite.
void register_gmem_arbiter_scenarios(Registry& registry, bool smoke);

}  // namespace mp3d::exp
