// SPDX-License-Identifier: Apache-2.0
// Snitch-like core model: single-issue, in-order, with a register
// scoreboard and a non-blocking LSU supporting multiple outstanding
// requests — the latency-tolerance mechanism MemPool relies on to hide its
// 1/3/5-cycle SPM access hierarchy.
//
// Timing model:
//   - one instruction issued per cycle when no hazard stalls;
//   - RAW/WAW hazards stall until the producing value is ready
//     (reg_ready[r] tracks availability; pending loads use kNever);
//   - taken branches/jumps pay a configurable flush penalty;
//   - memory operations allocate an LSU slot; the memory system may also
//     back-pressure (port busy), retried the next cycle;
//   - `fence` drains the LSU (used by the runtime before barriers);
//   - `wfi` sleeps until a wake-up token arrives (cluster wake-up unit).
#pragma once

#include <array>
#include <string>

#include "arch/decoded_image.hpp"
#include "arch/icache.hpp"
#include "arch/mem_types.hpp"
#include "arch/params.hpp"
#include "sim/counters.hpp"
#include "sim/types.hpp"

namespace mp3d::obs {
class Trace;
}

namespace mp3d::arch {

class Cluster;

enum class CoreState : u8 { kRunning, kWfi, kHalted, kError };

class SnitchCore {
 public:
  SnitchCore(const ClusterConfig& cfg, u16 global_id, u32 tile_id);

  /// Wire the core to its cluster (memory requests, icache refills and the
  /// sleep/wake/halt occupancy hooks), its tile's icache and the decoded
  /// program image.
  void attach(Cluster* cluster, TileICache* icache, const DecodedImage* image);

  /// Reset architectural state and start at `pc` with stack pointer `sp`.
  void reset(u32 pc, u32 sp);

  void step(sim::Cycle now);
  void deliver(const MemResponse& resp, sim::Cycle now);
  /// Post a wake-up token (consumed by wfi; saturating at 1).
  void wake(sim::Cycle now);

  // ---- state queries -------------------------------------------------------
  CoreState state() const { return state_; }
  bool halted() const { return state_ == CoreState::kHalted || state_ == CoreState::kError; }
  bool asleep() const { return state_ == CoreState::kWfi; }
  /// True when step() would make progress: running, or sleeping with a
  /// pending wake token (resumes on its next step). The cluster's
  /// active-core list and awake count track exactly this predicate.
  bool runnable() const {
    return state_ == CoreState::kRunning ||
           (state_ == CoreState::kWfi && wake_tokens_ > 0);
  }
  u32 exit_code() const { return exit_code_; }
  u16 global_id() const { return global_id_; }
  u32 tile_id() const { return tile_id_; }
  u64 instret() const { return instret_; }
  u32 pc() const { return pc_; }
  u32 reg(u32 r) const { return regs_[r]; }
  void set_reg(u32 r, u32 v) {
    if (r != 0) {
      regs_[r] = v;
    }
  }
  bool lsu_idle() const { return outstanding_ == 0; }
  std::string error_message() const { return error_; }
  /// What holds the core back at cycle `now`, for deadlock reports: a
  /// token-less wfi, a pending instruction fetch, the register the
  /// instruction at pc waits on (RAW), and in-flight LSU requests,
  /// comma-separated; empty when nothing does.
  std::string blocking_cause(sim::Cycle now) const;

  /// External fault injection (invalid address, bus error, ...).
  void fault(const std::string& message) { halt_error(message); }

  /// Merge this core's microarchitectural counters into `counters`.
  void add_counters(sim::CounterSet& counters) const;

  /// Attach the event trace (nullptr detaches); `track` is this core's
  /// timeline row. Emits "wfi" spans over sleep intervals.
  void set_trace(obs::Trace* trace, u32 track);
  /// End an open wfi span at `now` (run teardown) so traces stay balanced.
  void close_trace_span(sim::Cycle now);

 private:
  struct LsuSlot {
    bool in_use = false;
    u8 rd = 0;       ///< destination register (0 = none: stores)
    bool is_load = false;
  };

  void execute(const isa::Instr& instr, sim::Cycle now);
  /// First register `instr` must wait on at `now` (RAW, WAW or the p.mac
  /// accumulator), or -1 when it may issue.
  int hazard_reg(const isa::Instr& instr, sim::Cycle now) const;
  bool issue_memory_op(const isa::Instr& instr, sim::Cycle now);
  u32 csr_read(u16 csr, sim::Cycle now) const;
  void csr_write(u16 csr, u32 value);
  void halt_error(const std::string& message);

  // Configuration (copied scalars for hot-loop friendliness).
  u32 taken_branch_penalty_;
  u32 jump_penalty_;
  u32 div_latency_;
  u32 mul_latency_;
  u32 lsu_slots_;

  u16 global_id_;
  u32 tile_id_;

  Cluster* cluster_ = nullptr;
  TileICache* icache_ = nullptr;
  const DecodedImage* image_ = nullptr;

  // Architectural state.
  std::array<u32, 32> regs_{};
  u32 pc_ = 0;
  CoreState state_ = CoreState::kHalted;
  u32 exit_code_ = 0;
  std::string error_;
  u32 wake_tokens_ = 0;

  // Microarchitectural state.
  std::array<sim::Cycle, 32> reg_ready_{};
  std::array<LsuSlot, 32> lsu_{};
  u32 outstanding_ = 0;
  sim::Cycle stall_until_ = 0;
  u64 instret_ = 0;

  // Counters.
  u64 stall_raw_ = 0;
  u64 stall_lsu_full_ = 0;
  u64 stall_port_busy_ = 0;
  u64 stall_fetch_ = 0;
  u64 stall_fence_ = 0;
  u64 stall_flush_ = 0;
  u64 wfi_cycles_ = 0;

  obs::Trace* trace_ = nullptr;  ///< optional event trace (null = off)
  u32 track_ = 0;
  u32 ev_wfi_ = 0;
  u64 mem_ops_ = 0;
  u64 mac_ops_ = 0;
};

}  // namespace mp3d::arch
