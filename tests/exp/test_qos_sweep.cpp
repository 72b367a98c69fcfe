// SPDX-License-Identifier: Apache-2.0
// gmem_qos sweep: the registered mixed-tenancy scenarios stay deterministic
// under parallel execution (byte-identical CSV for any --jobs), the
// adaptive scenarios actually exercise the controller, and the soak loop
// behind both gmem suites reproduces pinned golden results for flat and
// bursty scalar loads.
#include <gtest/gtest.h>

#include <string>

#include "exp/row.hpp"
#include "exp/runner.hpp"
#include "exp/scenario.hpp"
#include "exp/scenarios_gmem.hpp"
#include "exp/scenarios_qos.hpp"

namespace mp3d::exp {
namespace {

TEST(QosSweep, SmokeGridRegistersStaticsAndAdaptive) {
  Registry registry;
  register_gmem_qos_scenarios(registry, /*smoke=*/true);
  const auto shares = gmem_qos_shares(true);
  const auto loads = gmem_qos_loads(true);
  const auto bws = gmem_qos_bws(true);
  EXPECT_EQ(registry.scenarios().size(),
            shares.size() * loads.size() * bws.size() +
                loads.size() * bws.size());
}

TEST(QosSweep, CsvBytesIdenticalAcrossJobCounts) {
  Registry registry;
  register_gmem_qos_scenarios(registry, /*smoke=*/true);
  RunnerOptions serial;
  serial.jobs = 1;
  RunnerOptions parallel;
  parallel.jobs = 4;
  const SweepReport report_1 = run_sweep(registry.scenarios(), serial);
  const SweepReport report_4 = run_sweep(registry.scenarios(), parallel);
  EXPECT_EQ(report_1.failures(), 0u);
  EXPECT_EQ(report_4.failures(), 0u);
  const std::string csv_1 = rows_to_csv(report_1.rows());
  const std::string csv_4 = rows_to_csv(report_4.rows());
  EXPECT_EQ(csv_1, csv_4);
  EXPECT_NE(csv_1.find("qos_adaptive"), std::string::npos);
  EXPECT_NE(csv_1.find("qos_static"), std::string::npos);
}

TEST(QosSweep, AdaptiveScenariosActuallyAdjustTheShare) {
  Registry registry;
  register_gmem_qos_scenarios(registry, /*smoke=*/true);
  RunnerOptions options;
  options.jobs = 1;
  const SweepReport report = run_sweep(registry.scenarios(), options);
  for (const u64 load : gmem_qos_loads(true)) {
    for (const u64 bw : gmem_qos_bws(true)) {
      const std::string name = gmem_qos_adaptive_name(load, bw);
      const auto adjustments = report.metric(name, "adjustments");
      ASSERT_TRUE(adjustments.has_value()) << name;
      EXPECT_GE(*adjustments, 2.0) << name;
      const auto share_avg = report.metric(name, "share_avg");
      ASSERT_TRUE(share_avg.has_value()) << name;
      EXPECT_GT(*share_avg, 0.0) << name;
      // Static scenarios report zero adjustments by construction.
      const std::string static_name = gmem_qos_static_name(0, load, bw);
      EXPECT_EQ(report.metric(static_name, "adjustments"), 0.0) << static_name;
    }
  }
}

struct FlatGolden {
  u32 bw, share, load;
  u64 completed, bulk_bytes, bulk_stall_cycles;
  double p50, p99;
};

TEST(SoakGolden, FlatLoadAgainstOneSaturatingBulkTenant) {
  const FlatGolden goldens[] = {
      {4, 0, 150, 19996, 0, 19999, 3336.5, 6602.05},
      {16, 25, 67, 53589, 105600, 0, 4.0, 4.0},
      {64, 50, 45, 143971, 704000, 0, 4.0, 4.0},
  };
  for (const FlatGolden& g : goldens) {
    GmemSoakParams p;
    p.bytes_per_cycle = g.bw;
    p.bulk_min_pct = g.share;
    p.scalar_load_pct = g.load;
    p.cycles = 20000;
    const GmemSoakResult r = run_gmem_soak(p);
    const std::string at = "bw=" + std::to_string(g.bw) +
                           " share=" + std::to_string(g.share) +
                           " load=" + std::to_string(g.load);
    EXPECT_EQ(r.scalar_completed, g.completed) << at;
    EXPECT_EQ(r.bulk_bytes, g.bulk_bytes) << at;
    EXPECT_EQ(r.bulk_stall_cycles, g.bulk_stall_cycles) << at;
    EXPECT_DOUBLE_EQ(r.scalar_p50, g.p50) << at;
    EXPECT_DOUBLE_EQ(r.scalar_p99, g.p99) << at;
  }
}

/// The gmem_qos scenario shape at 16 B/cycle, burst load 180 %, 8 periods.
GmemSoakResult burst_soak(bool adaptive) {
  GmemSoakParams p;
  p.bytes_per_cycle = 16;
  p.scalar_load_pct = 10;
  p.burst_period = 4096;
  p.burst_cycles = 512;
  p.burst_load_pct = 180;
  p.bulk_rates_pct = {90, 70};
  p.cycles = 4096 * 8;
  if (adaptive) {
    p.qos = qos_soak_controller();
    p.bulk_min_pct = p.qos.min_pct;
  } else {
    p.bulk_min_pct = 25;
  }
  return run_gmem_soak(p);
}

TEST(SoakGolden, BurstLoadAtStaticShare) {
  const GmemSoakResult r = burst_soak(/*adaptive=*/false);
  EXPECT_DOUBLE_EQ(r.scalar_p50, 264.0);
  EXPECT_DOUBLE_EQ(r.scalar_p99, 711.0);
  EXPECT_EQ(r.bulk_bytes, 360448U);
  EXPECT_EQ(r.scalar_backlog_end, 2U);
  EXPECT_EQ(r.adjustments, 0U);
}

TEST(SoakGolden, BurstLoadUnderTheAdaptiveController) {
  const GmemSoakResult r = burst_soak(/*adaptive=*/true);
  EXPECT_DOUBLE_EQ(r.scalar_p50, 159.0);
  EXPECT_DOUBLE_EQ(r.scalar_p99, 426.0);
  EXPECT_EQ(r.bulk_stall_cycles, 7253U);
  EXPECT_NEAR(r.share_avg_pct, 30.3547, 5e-5);
  EXPECT_EQ(r.adjustments, 79U);
}

}  // namespace
}  // namespace mp3d::exp
