// SPDX-License-Identifier: Apache-2.0
// Per-component counter reset: Cluster::load_program must zero every
// statistic (gmem/bank/noc/icache/dma/core) and drop stale traffic so that
// back-to-back runs of the same program on one cluster report identical
// RunResult counters.
#include <gtest/gtest.h>

#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "testing.hpp"

namespace mp3d::arch {
namespace {

void expect_identical_counters(const RunResult& first, const RunResult& second) {
  EXPECT_EQ(first.cycles, second.cycles);
  for (const auto& [name, value] : first.counters.all()) {
    EXPECT_EQ(second.counters.get(name), value) << "counter " << name;
  }
  EXPECT_EQ(first.counters.all().size(), second.counters.all().size());
}

TEST(CounterReset, BackToBackAsmRunsIdentical) {
  // Raw program touching SPM banks, remote tiles, gmem and the icache.
  ClusterConfig cfg = ClusterConfig::mini();
  Cluster cluster(cfg);
  const std::string src = mp3d::testing::ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    slli t1, t0, 8
    li t2, 0x2000
    add t1, t1, t2          # per-core SPM scratch
    li t3, 32
loop:
    sw t3, 0(t1)
    lw t4, 0(t1)
    addi t1, t1, 4
    addi t3, t3, -1
    bnez t3, loop
    li t5, 0x80040000
    slli t6, t0, 6
    add t5, t5, t6
    sw t0, 0(t5)            # gmem store
    lw t6, 0(t5)            # gmem load
    bnez t0, park
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult first = mp3d::testing::run_asm(cluster, src);
  const RunResult second = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  expect_identical_counters(first, second);
  EXPECT_GT(first.counters.get("gmem.bytes"), 0U);
  EXPECT_GT(first.counters.get("bank.accesses"), 0U);
  // The read/write split covers the aggregate (AMOs count on both sides).
  EXPECT_GT(first.counters.get("bank.reads"), 0U);
  EXPECT_GT(first.counters.get("bank.writes"), 0U);
  EXPECT_GE(first.counters.get("bank.reads") + first.counters.get("bank.writes"),
            first.counters.get("bank.accesses"));
}

TEST(CounterSplit, BankReadsWritesAndAmoDoubleActivation) {
  // Core 0 performs exactly one load, one store and one AMO against its
  // local SPM while every other core parks untouched: 2 reads (lw + the
  // AMO's read phase), 2 writes (sw + the AMO's write phase), 3 accesses.
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.perfect_icache = true;  // no refill traffic in the way
  Cluster cluster(cfg);
  const std::string src = mp3d::testing::ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, 0x200
    li t2, 7
    sw t2, 0(t1)
    lw t3, 0(t1)
    amoadd.w t4, t2, (t1)
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.counters.get("bank.accesses"), 3U);
  EXPECT_EQ(r.counters.get("bank.reads"), 2U);
  EXPECT_EQ(r.counters.get("bank.writes"), 2U);
}

TEST(CounterSplit, NocHopsCountedPerNetworkLevel) {
  // A load from another tile of the same group crosses the local butterfly
  // (one request + one response flit); with a single group no global
  // network is ever touched.
  ClusterConfig cfg = ClusterConfig::mini();
  cfg.perfect_icache = true;
  Cluster cluster(cfg);
  const std::string src = mp3d::testing::ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, 0x1000           # tile 1's sequential region (remote, same group)
    lw t2, 0(t1)
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.counters.get("noc.local_hops"), 2U);
  EXPECT_EQ(r.counters.get("noc.global_hops"), 0U);
  EXPECT_EQ(r.counters.get("noc.local_hops") + r.counters.get("noc.global_hops"),
            r.counters.get("noc.req_flits") + r.counters.get("noc.resp_flits"));
}

TEST(CounterSplit, InterGroupAccessCountsGlobalHops) {
  ClusterConfig cfg;
  cfg.num_groups = 4;
  cfg.tiles_per_group = 1;
  cfg.cores_per_tile = 4;
  cfg.banks_per_tile = 16;
  cfg.spm_capacity = KiB(64);
  cfg.seq_bytes_per_tile = KiB(4);
  cfg.gmem_size = MiB(16);
  cfg.perfect_icache = true;
  cfg.validate();
  Cluster cluster(cfg);
  const std::string src = mp3d::testing::ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, 0x1000           # tile 1 = group 1: inter-group network
    lw t2, 0(t1)
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.counters.get("noc.global_hops"), 2U);
  EXPECT_EQ(r.counters.get("noc.local_hops"), 0U);
}

TEST(CounterReset, BackToBackDmaMatmulRunsIdentical) {
  // The DMA matmul exercises every counter family: cores, banks, both
  // networks, the icache (cold: no warming), gmem and the DMA engines.
  ClusterConfig cfg = ClusterConfig::mini();
  Cluster cluster(cfg);
  kernels::MatmulParams p;
  p.m = 32;
  p.t = 16;
  const kernels::Kernel kernel = kernels::build_matmul_dma(cfg, p);
  const RunResult first = kernels::run_kernel(cluster, kernel, 10'000'000);
  const RunResult second = kernels::run_kernel(cluster, kernel, 10'000'000);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  expect_identical_counters(first, second);
  EXPECT_GT(first.counters.get("dma.bytes"), 0U);
  EXPECT_GT(first.counters.get("noc.req_flits"), 0U);
  EXPECT_GT(first.counters.get("icache.misses"), 0U);
}

TEST(CounterReset, ResetRunStateRewindsToAnIdenticalRerun) {
  // Without reloading the program, reset_run_state rewinds the cluster to
  // the loaded image: the rerun reaches eoc on the same cycle with the
  // same counters.
  ClusterConfig cfg = ClusterConfig::tiny();
  Cluster cluster(cfg);
  const std::string src = mp3d::testing::ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li a0, 3
    li t0, EOC
    sw a0, 0(t0)
park:
    wfi
    j park
)";
  const RunResult first = mp3d::testing::run_asm(cluster, src);
  ASSERT_TRUE(first.eoc);
  EXPECT_EQ(first.exit_code, 3U);
  EXPECT_EQ(first.counters.get("cycles"), first.cycles);
  EXPECT_GT(first.counters.get("core.instret"), 0U);
  cluster.reset_run_state();
  EXPECT_EQ(cluster.now(), 0U);
  EXPECT_FALSE(cluster.eoc_signaled());
  const RunResult second = cluster.run(2'000'000);
  ASSERT_TRUE(second.eoc);
  expect_identical_counters(first, second);
}

TEST(CounterReset, StatsDoNotLeakAcrossDifferentPrograms) {
  // A heavy first run must leave no residue in a trivial second run.
  ClusterConfig cfg = ClusterConfig::mini();
  Cluster cluster(cfg);
  kernels::MatmulParams p;
  p.m = 32;
  p.t = 16;
  kernels::run_kernel(cluster, kernels::build_matmul_dma(cfg, p), 10'000'000);
  const std::string trivial = mp3d::testing::ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  const RunResult r = mp3d::testing::run_asm(cluster, trivial);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.counters.get("dma.bytes"), 0U);
  EXPECT_EQ(r.counters.get("dma.descriptors"), 0U);
  EXPECT_EQ(r.counters.get("gmem.bulk_bytes"), 0U);
  EXPECT_EQ(r.counters.get("bank.conflicts"), 0U);
  EXPECT_LT(r.cycles, 2000U);
}

}  // namespace
}  // namespace mp3d::arch
