// SPDX-License-Identifier: Apache-2.0
// End-of-run verdicts of the two run loops. Cluster::run and
// sys::System::run_jobs share one watchdog (sim::Watchdog): the same
// no-progress window, the same re-arm while a wake oracle reports a finite
// event, and the same fast-forward horizon. A bare cluster and a System of
// one cluster must therefore end every run on the same cycle with the same
// verdict, with fast-forward on or off. Every run here also checks the
// per-core cycle accounting identity
//
//   instret + sum(core.stall_*) + core.wfi_cycles == cycles x cores,
//
// which guards the bulk charging of fast-forward jumps and sleeping cores.
// The deadlock report the verdict prints (Cluster::deadlock_diagnostic) is
// pinned on the same two programs.
#include <gtest/gtest.h>

#include <string>

#include "kernels/kernel.hpp"
#include "sim/watchdog.hpp"
#include "sys/system.hpp"
#include "testing.hpp"

namespace mp3d {
namespace {

using mp3d::testing::ctrl_prelude;

constexpr u64 kMaxCycles = 1'000'000;

struct Observed {
  arch::RunResult result;
  u64 skipped = 0;  ///< cycles the run fast-forwarded over
  bool ff = false;  ///< effective setting (MP3D_FAST_FORWARD may override)
};

/// Run `src` on a bare cluster or on a System of one cluster.
Observed run(arch::ClusterConfig cfg, const std::string& src, bool through_system,
             bool ff) {
  cfg.fast_forward = ff;
  isa::AsmOptions options;
  options.default_base = cfg.gmem_base;
  kernels::Kernel kernel;
  kernel.name = "run_loop";
  kernel.program = isa::assemble(src, options);
  Observed o;
  if (through_system) {
    sys::SystemConfig scfg;
    scfg.num_clusters = 1;
    scfg.cluster = cfg;
    sys::System system(scfg);
    sys::SystemResult result = system.run_kernel(kernel, kMaxCycles);
    EXPECT_EQ(result.jobs.size(), 1U);
    EXPECT_EQ(result.cycles, result.jobs[0].result.cycles);
    EXPECT_EQ(result.deadlock, result.jobs[0].result.deadlock);
    EXPECT_FALSE(result.hit_max_cycles);
    o.result = std::move(result.jobs[0].result);
    o.skipped = system.cluster(0).fast_forwarded_cycles();
    o.ff = system.cluster(0).fast_forward_enabled();
  } else {
    arch::Cluster cluster(cfg);
    cluster.load_program(kernel.program);
    o.result = cluster.run(kMaxCycles);
    o.skipped = cluster.fast_forwarded_cycles();
    o.ff = cluster.fast_forward_enabled();
  }
  return o;
}

void expect_cycle_accounting(const arch::ClusterConfig& cfg,
                             const arch::RunResult& result) {
  const sim::CounterSet& c = result.counters;
  const u64 accounted = c.get("core.instret") + c.get("core.stall_raw") +
                        c.get("core.stall_lsu_full") + c.get("core.stall_port_busy") +
                        c.get("core.stall_fetch") + c.get("core.stall_fence") +
                        c.get("core.stall_flush") + c.get("core.wfi_cycles");
  EXPECT_EQ(accounted, result.cycles * cfg.num_cores());
}

/// Every combination of {bare Cluster, System of one} x {ff on, ff off}.
template <typename Check>
void for_each_loop(const arch::ClusterConfig& cfg, const std::string& src,
                   Check check) {
  for (const bool through_system : {false, true}) {
    for (const bool ff : {true, false}) {
      SCOPED_TRACE(std::string(through_system ? "system" : "bare") +
                   (ff ? " ff-on" : " ff-off"));
      const Observed o = run(cfg, src, through_system, ff);
      expect_cycle_accounting(cfg, o.result);
      check(o);
    }
  }
}

TEST(RunLoop, PermanentWfiIsADeadlockAfterOneWindow) {
  // Every core sleeps for good: the verdict fires one watchdog window after
  // the last activity, and a fast-forward jump lands exactly on it.
  const arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    wfi
    j _start
)";
  for_each_loop(cfg, src, [&](const Observed& o) {
    EXPECT_TRUE(o.result.deadlock);
    EXPECT_FALSE(o.result.eoc);
    EXPECT_FALSE(o.result.hit_max_cycles);
    EXPECT_EQ(o.result.cycles, 20007U);
    EXPECT_EQ(o.result.cycles * cfg.num_cores(), 80028U);
    if (o.ff) {
      EXPECT_GT(o.skipped, 0U);
    } else {
      EXPECT_EQ(o.skipped, 0U);
    }
  });
}

TEST(RunLoop, AWaitLongerThanTheWindowReArmsTheWatchdog) {
  // Core 0's instruction fetch and its one load each wait out a gmem
  // latency longer than the watchdog window. The wake oracle reports the
  // in-flight completion, so the watchdog re-arms instead of calling a
  // deadlock, and the run ends in eoc.
  arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  cfg.gmem_latency = 30'000;
  ASSERT_GT(cfg.gmem_latency, sim::Watchdog::kWindow);
  const std::string src = ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, 0x80010000
    lw a0, 0(t1)
    mv a1, a0               # stalls until the load returns
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)";
  for_each_loop(cfg, src, [&](const Observed& o) {
    EXPECT_TRUE(o.result.ok());
    EXPECT_FALSE(o.result.deadlock);
    EXPECT_EQ(o.result.cycles, 60012U);
    EXPECT_EQ(o.result.cycles * cfg.num_cores(), 240048U);
  });
}

// ---------------------------------------------------------- deadlock report

TEST(DeadlockDiagnostic, GroupsPermanentSleepersByStateAndPc) {
  arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  isa::AsmOptions options;
  options.default_base = cfg.gmem_base;
  arch::Cluster cluster(cfg);
  cluster.load_program(isa::assemble(ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    wfi
    j _start
)",
                                     options));
  const arch::RunResult result = cluster.run(kMaxCycles);
  ASSERT_TRUE(result.deadlock);
  ASSERT_EQ(result.cycles, 20007U);
  // A sleeping core's pc is the instruction it resumes at, past the wfi.
  EXPECT_EQ(cluster.deadlock_diagnostic(),
            "cycle 20007, cores by state and pc:\n"
            "  4 cores wfi at pc=0x80000004: jal zero, 0x80000000"
            " -- wfi without a wake token\n");
}

TEST(DeadlockDiagnostic, NamesTheRegisterABlockedLoadWaitsOn) {
  arch::ClusterConfig cfg = arch::ClusterConfig::tiny();
  cfg.gmem_latency = 30'000;
  isa::AsmOptions options;
  options.default_base = cfg.gmem_base;
  arch::Cluster cluster(cfg);
  cluster.load_program(isa::assemble(ctrl_prelude(cfg) + R"(
.text 0x80000000
_start:
    csrr t0, mhartid
    bnez t0, park
    li t1, 0x80010000
    lw a0, 0(t1)
    mv a1, a0               # stalls until the load returns
    li t0, EOC
    sw zero, 0(t0)
park:
    wfi
    j park
)",
                                     options));
  // Stop halfway through the load's gmem latency (the run ends at 60012).
  const arch::RunResult result = cluster.run(45'000);
  ASSERT_TRUE(result.hit_max_cycles);
  // The parked cores still wait for the refill of the line holding `park`.
  EXPECT_EQ(cluster.deadlock_diagnostic(),
            "cycle 45000, cores by state and pc:\n"
            "  1 core running at pc=0x80000014: addi a1, a0, 0"
            " -- RAW on a0 (load in flight), 1 LSU request outstanding\n"
            "  3 cores running at pc=0x80000024: wfi -- instruction fetch pending\n");
}

}  // namespace
}  // namespace mp3d
