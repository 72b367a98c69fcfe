// SPDX-License-Identifier: Apache-2.0
#include "arch/core.hpp"

#include <algorithm>

#include "arch/cluster.hpp"
#include "common/assert.hpp"
#include "isa/assembler.hpp"
#include "obs/trace.hpp"

namespace mp3d::arch {

using isa::Instr;
using isa::Op;

SnitchCore::SnitchCore(const ClusterConfig& cfg, u16 global_id, u32 tile_id)
    : taken_branch_penalty_(cfg.taken_branch_penalty),
      jump_penalty_(cfg.jump_penalty),
      div_latency_(cfg.div_latency),
      mul_latency_(cfg.mul_latency),
      lsu_slots_(std::min<u32>(cfg.lsu_max_outstanding, 32)),
      global_id_(global_id),
      tile_id_(tile_id) {}

void SnitchCore::attach(Cluster* cluster, TileICache* icache, const DecodedImage* image) {
  cluster_ = cluster;
  icache_ = icache;
  image_ = image;
}

void SnitchCore::reset(u32 pc, u32 sp) {
  regs_.fill(0);
  reg_ready_.fill(0);
  for (LsuSlot& slot : lsu_) {
    slot = LsuSlot{};
  }
  outstanding_ = 0;
  pc_ = pc;
  regs_[2] = sp;
  state_ = CoreState::kRunning;
  exit_code_ = 0;
  error_.clear();
  wake_tokens_ = 0;
  stall_until_ = 0;
  instret_ = 0;
  stall_raw_ = 0;
  stall_lsu_full_ = 0;
  stall_port_busy_ = 0;
  stall_fetch_ = 0;
  stall_fence_ = 0;
  stall_flush_ = 0;
  wfi_cycles_ = 0;
  mem_ops_ = 0;
  mac_ops_ = 0;
}

void SnitchCore::deliver(const MemResponse& resp, sim::Cycle now) {
  MP3D_ASSERT(resp.tag < lsu_.size());
  LsuSlot& slot = lsu_[resp.tag];
  MP3D_ASSERT_MSG(slot.in_use, "response for free LSU slot on core " << global_id_);
  if (slot.is_load && slot.rd != 0) {
    regs_[slot.rd] = resp.rdata;
    reg_ready_[slot.rd] = now;
  }
  slot = LsuSlot{};
  MP3D_ASSERT(outstanding_ > 0);
  --outstanding_;
}

void SnitchCore::wake(sim::Cycle /*now*/) {
  if (state_ == CoreState::kWfi && wake_tokens_ == 0) {
    cluster_->note_core_awake(global_id_);
  }
  wake_tokens_ = std::min(wake_tokens_ + 1, 1U);
}

int SnitchCore::hazard_reg(const Instr& in, sim::Cycle now) const {
  if (isa::reads_rs1(in) && reg_ready_[in.rs1] > now) {
    return in.rs1;
  }
  if (isa::reads_rs2(in) && reg_ready_[in.rs2] > now) {
    return in.rs2;
  }
  // WAW on the destination and the p.mac accumulator input.
  if ((isa::writes_rd(in) || isa::reads_rd(in)) && reg_ready_[in.rd] > now) {
    return in.rd;
  }
  if (isa::writes_rs1(in) && reg_ready_[in.rs1] > now) {
    return in.rs1;
  }
  return -1;
}

std::string SnitchCore::blocking_cause(sim::Cycle now) const {
  std::string causes;
  auto add = [&causes](const std::string& cause) {
    causes += (causes.empty() ? "" : ", ") + cause;
  };
  if (state_ == CoreState::kWfi && wake_tokens_ == 0) {
    add("wfi without a wake token");
  }
  const bool fetched = state_ == CoreState::kRunning && icache_->present(pc_);
  if (state_ == CoreState::kRunning && !fetched) {
    add("instruction fetch pending");
  }
  const Instr* in = fetched ? image_->lookup(pc_) : nullptr;
  const int r = in == nullptr ? -1 : hazard_reg(*in, now);
  if (r >= 0) {
    const sim::Cycle ready = reg_ready_[static_cast<u32>(r)];
    add(std::string("RAW on ") + isa::register_abi_name(static_cast<u32>(r)) +
        (ready == sim::kNever ? " (load in flight)"
                              : " (ready at cycle " + std::to_string(ready) + ")"));
  }
  if (outstanding_ > 0) {
    add(std::to_string(outstanding_) + " LSU request" + (outstanding_ == 1 ? "" : "s") +
        " outstanding");
  }
  return causes;
}

void SnitchCore::step(sim::Cycle now) {
  if (halted()) {
    return;
  }
  if (state_ == CoreState::kWfi) {
    if (wake_tokens_ > 0) {
      --wake_tokens_;
      state_ = CoreState::kRunning;
      if (trace_ != nullptr) {
        trace_->end(track_, ev_wfi_, now);
      }
    } else {
      ++wfi_cycles_;
      return;
    }
  }
  if (now < stall_until_) {
    ++stall_flush_;
    return;
  }
  // ---- fetch ----------------------------------------------------------------
  if (!icache_->present(pc_)) {
    if (!icache_->miss_pending(pc_)) {
      icache_->count_miss();
      cluster_->request_icache_refill(tile_id_, pc_);
    }
    ++stall_fetch_;
    return;
  }
  icache_->count_hit();
  const Instr* instr = image_->lookup(pc_);
  if (instr == nullptr) {
    halt_error("fetch outside program image at pc=0x" + std::to_string(pc_));
    return;
  }
  if (!instr->valid()) {
    halt_error("illegal instruction at pc=0x" + std::to_string(pc_));
    return;
  }
  // ---- hazards ----------------------------------------------------------------
  if (hazard_reg(*instr, now) >= 0) {
    ++stall_raw_;
    return;
  }
  execute(*instr, now);
}

bool SnitchCore::issue_memory_op(const Instr& in, sim::Cycle now) {
  // Find a free LSU slot.
  u8 tag = 0xFF;
  for (u8 i = 0; i < lsu_slots_; ++i) {
    if (!lsu_[i].in_use) {
      tag = i;
      break;
    }
  }
  if (tag == 0xFF) {
    ++stall_lsu_full_;
    return false;
  }

  MemRequest req;
  req.op = in.op;
  req.core = global_id_;
  req.tag = tag;
  req.issued_at = now;
  req.sign_extend = in.op == Op::kLb || in.op == Op::kLh;
  switch (in.op) {
    case Op::kLb:
    case Op::kLbu:
    case Op::kSb:
      req.size = MemSize::kByte;
      break;
    case Op::kLh:
    case Op::kLhu:
    case Op::kSh:
      req.size = MemSize::kHalf;
      break;
    default:
      req.size = MemSize::kWord;
      break;
  }

  u32 addr = 0;
  switch (in.op) {
    case Op::kPLwPost:
    case Op::kPLwRPost:
    case Op::kPSwPost:
      addr = regs_[in.rs1];  // post-increment: access old address
      break;
    case Op::kLrW:
    case Op::kScW:
    default:
      addr = regs_[in.rs1] + (isa::is_amo(in.op) ? 0 : static_cast<u32>(in.imm));
      break;
  }
  req.addr = addr;
  if (isa::is_store(in.op) || isa::is_amo(in.op)) {
    req.wdata = regs_[in.rs2];
  }
  if (in.op == Op::kPSwPost) {
    req.wdata = regs_[in.rs2];
  }

  const IssueResult result = cluster_->issue_mem(req);
  if (result == IssueResult::kPortBusy) {
    ++stall_port_busy_;
    return false;
  }

  // Accepted: commit side effects.
  LsuSlot& slot = lsu_[tag];
  slot.in_use = true;
  slot.is_load = isa::is_load(in.op) || isa::is_amo(in.op);
  slot.rd = isa::writes_rd(in) ? in.rd : 0;
  ++outstanding_;
  ++mem_ops_;
  if (slot.rd != 0) {
    reg_ready_[slot.rd] = sim::kNever;
  }
  // Post-increment address update happens in the AGU at issue.
  if (isa::writes_rs1(in)) {
    const u32 incr = in.op == Op::kPLwRPost ? regs_[in.rs2] : static_cast<u32>(in.imm);
    regs_[in.rs1] = regs_[in.rs1] + incr;
    reg_ready_[in.rs1] = now;
  }
  return true;
}

void SnitchCore::execute(const Instr& in, sim::Cycle now) {
  const u32 a = regs_[in.rs1];
  const u32 b = regs_[in.rs2];
  const i32 as = static_cast<i32>(a);
  const i32 bs = static_cast<i32>(b);
  u32 next_pc = pc_ + 4;
  bool wrote = false;
  u32 value = 0;
  sim::Cycle ready = now;

  switch (in.op) {
    case Op::kLui: value = static_cast<u32>(in.imm); wrote = true; break;
    case Op::kAuipc: value = pc_ + static_cast<u32>(in.imm); wrote = true; break;
    case Op::kJal:
      value = pc_ + 4;
      wrote = true;
      next_pc = pc_ + static_cast<u32>(in.imm);
      stall_until_ = now + 1 + jump_penalty_;
      break;
    case Op::kJalr:
      value = pc_ + 4;
      wrote = true;
      next_pc = (a + static_cast<u32>(in.imm)) & ~1U;
      stall_until_ = now + 1 + jump_penalty_;
      break;
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kBltu:
    case Op::kBgeu: {
      bool taken = false;
      switch (in.op) {
        case Op::kBeq: taken = a == b; break;
        case Op::kBne: taken = a != b; break;
        case Op::kBlt: taken = as < bs; break;
        case Op::kBge: taken = as >= bs; break;
        case Op::kBltu: taken = a < b; break;
        case Op::kBgeu: taken = a >= b; break;
        default: break;
      }
      if (taken) {
        next_pc = pc_ + static_cast<u32>(in.imm);
        stall_until_ = now + 1 + taken_branch_penalty_;
      }
      break;
    }
    case Op::kAddi: value = a + static_cast<u32>(in.imm); wrote = true; break;
    case Op::kSlti: value = as < in.imm ? 1 : 0; wrote = true; break;
    case Op::kSltiu: value = a < static_cast<u32>(in.imm) ? 1 : 0; wrote = true; break;
    case Op::kXori: value = a ^ static_cast<u32>(in.imm); wrote = true; break;
    case Op::kOri: value = a | static_cast<u32>(in.imm); wrote = true; break;
    case Op::kAndi: value = a & static_cast<u32>(in.imm); wrote = true; break;
    case Op::kSlli: value = a << (in.imm & 31); wrote = true; break;
    case Op::kSrli: value = a >> (in.imm & 31); wrote = true; break;
    case Op::kSrai: value = static_cast<u32>(as >> (in.imm & 31)); wrote = true; break;
    case Op::kAdd: value = a + b; wrote = true; break;
    case Op::kSub: value = a - b; wrote = true; break;
    case Op::kSll: value = a << (b & 31); wrote = true; break;
    case Op::kSlt: value = as < bs ? 1 : 0; wrote = true; break;
    case Op::kSltu: value = a < b ? 1 : 0; wrote = true; break;
    case Op::kXor: value = a ^ b; wrote = true; break;
    case Op::kSrl: value = a >> (b & 31); wrote = true; break;
    case Op::kSra: value = static_cast<u32>(as >> (b & 31)); wrote = true; break;
    case Op::kOr: value = a | b; wrote = true; break;
    case Op::kAnd: value = a & b; wrote = true; break;
    case Op::kMul:
      value = a * b;
      wrote = true;
      ready = now + (mul_latency_ - 1);
      break;
    case Op::kMulh:
      value = static_cast<u32>((static_cast<i64>(as) * static_cast<i64>(bs)) >> 32);
      wrote = true;
      ready = now + (mul_latency_ - 1);
      break;
    case Op::kMulhsu:
      value = static_cast<u32>((static_cast<i64>(as) * static_cast<i64>(static_cast<u64>(b))) >> 32);
      wrote = true;
      ready = now + (mul_latency_ - 1);
      break;
    case Op::kMulhu:
      value = static_cast<u32>((static_cast<u64>(a) * static_cast<u64>(b)) >> 32);
      wrote = true;
      ready = now + (mul_latency_ - 1);
      break;
    case Op::kDiv:
      value = b == 0 ? 0xFFFFFFFFU
                     : (as == INT32_MIN && bs == -1 ? static_cast<u32>(INT32_MIN)
                                                    : static_cast<u32>(as / bs));
      wrote = true;
      ready = now + div_latency_;
      break;
    case Op::kDivu:
      value = b == 0 ? 0xFFFFFFFFU : a / b;
      wrote = true;
      ready = now + div_latency_;
      break;
    case Op::kRem:
      value = b == 0 ? a
                     : (as == INT32_MIN && bs == -1 ? 0 : static_cast<u32>(as % bs));
      wrote = true;
      ready = now + div_latency_;
      break;
    case Op::kRemu:
      value = b == 0 ? a : a % b;
      wrote = true;
      ready = now + div_latency_;
      break;
    case Op::kPMac:
      value = regs_[in.rd] + a * b;
      wrote = true;
      ++mac_ops_;
      break;
    case Op::kPMsu:
      value = regs_[in.rd] - a * b;
      wrote = true;
      ++mac_ops_;
      break;
    case Op::kPMax: value = static_cast<u32>(std::max(as, bs)); wrote = true; break;
    case Op::kPMin: value = static_cast<u32>(std::min(as, bs)); wrote = true; break;
    case Op::kPAbs: value = static_cast<u32>(as < 0 ? -as : as); wrote = true; break;
    case Op::kFence:
      if (outstanding_ > 0) {
        ++stall_fence_;
        return;  // keep pc, retry
      }
      break;
    case Op::kEcall:
      state_ = CoreState::kHalted;
      exit_code_ = regs_[10];
      ++instret_;
      cluster_->note_core_halted(global_id_, /*was_awake=*/true);
      return;
    case Op::kEbreak:
      halt_error("ebreak executed at pc=0x" + std::to_string(pc_));
      return;
    case Op::kWfi:
      if (wake_tokens_ > 0) {
        --wake_tokens_;
      } else {
        state_ = CoreState::kWfi;
        cluster_->note_core_asleep(global_id_);
        if (trace_ != nullptr) {
          trace_->begin(track_, ev_wfi_, now);
        }
      }
      break;
    case Op::kCsrrw:
    case Op::kCsrrs:
    case Op::kCsrrc: {
      const u32 old = csr_read(in.csr, now);
      if (in.op == Op::kCsrrw) {
        csr_write(in.csr, a);
      } else if (in.rs1 != 0) {
        csr_write(in.csr, in.op == Op::kCsrrs ? (old | a) : (old & ~a));
      }
      value = old;
      wrote = in.rd != 0;
      break;
    }
    case Op::kCsrrwi:
    case Op::kCsrrsi:
    case Op::kCsrrci: {
      const u32 old = csr_read(in.csr, now);
      const auto imm = static_cast<u32>(in.imm);
      if (in.op == Op::kCsrrwi) {
        csr_write(in.csr, imm);
      } else if (imm != 0) {
        csr_write(in.csr, in.op == Op::kCsrrsi ? (old | imm) : (old & ~imm));
      }
      value = old;
      wrote = in.rd != 0;
      break;
    }
    default:
      if (isa::is_mem(in.op)) {
        if (!issue_memory_op(in, now)) {
          return;  // stall recorded; retry next cycle
        }
        pc_ = next_pc;
        ++instret_;
        return;
      }
      halt_error(std::string("unimplemented op ") + isa::op_name(in.op));
      return;
  }

  if (wrote && in.rd != 0) {
    regs_[in.rd] = value;
    reg_ready_[in.rd] = ready;
  }
  pc_ = next_pc;
  ++instret_;
}

u32 SnitchCore::csr_read(u16 csr, sim::Cycle now) const {
  switch (csr) {
    case isa::kCsrMHartId: return global_id_;
    case isa::kCsrMCycle: return static_cast<u32>(now);
    case isa::kCsrMInstret: return static_cast<u32>(instret_);
    default: return 0;
  }
}

void SnitchCore::csr_write(u16 /*csr*/, u32 /*value*/) {
  // All implemented CSRs are read-only; writes are ignored (WARL).
}

void SnitchCore::halt_error(const std::string& message) {
  const bool was_awake = runnable();
  const bool was_halted = halted();
  state_ = CoreState::kError;
  error_ = message;
  exit_code_ = 0xDEAD;
  if (!was_halted) {
    cluster_->note_core_halted(global_id_, was_awake);
  }
}

void SnitchCore::set_trace(obs::Trace* trace, u32 track) {
  trace_ = trace;
  track_ = track;
  if (trace_ != nullptr) {
    ev_wfi_ = trace_->intern("wfi");
  }
}

void SnitchCore::close_trace_span(sim::Cycle now) {
  if (trace_ != nullptr && state_ == CoreState::kWfi) {
    trace_->end(track_, ev_wfi_, now);
  }
}

void SnitchCore::add_counters(sim::CounterSet& counters) const {
  counters.bump("core.instret", instret_);
  counters.bump("core.stall_raw", stall_raw_);
  counters.bump("core.stall_lsu_full", stall_lsu_full_);
  counters.bump("core.stall_port_busy", stall_port_busy_);
  counters.bump("core.stall_fetch", stall_fetch_);
  counters.bump("core.stall_fence", stall_fence_);
  counters.bump("core.stall_flush", stall_flush_);
  counters.bump("core.wfi_cycles", wfi_cycles_);
  counters.bump("core.mem_ops", mem_ops_);
  counters.bump("core.mac_ops", mac_ops_);
}

}  // namespace mp3d::arch
