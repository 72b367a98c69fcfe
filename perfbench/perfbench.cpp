// SPDX-License-Identifier: Apache-2.0
// Host-speed benchmark of the simulator: how fast does it set up, simulate,
// verify and cost the paper's workloads, and which layer spends the time?
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--out FILE]
//
// Workloads (one per process, single-threaded):
//   paper_matmul     core-driven matmul t=128 m=256 on mempool(4 MiB) at
//                    16 B/cycle, warm icaches (the Fig. 8/9 4 MiB point)
//   far_memory_axpy  DMA-staged axpy n=262144 on mempool(1 MiB) behind a
//                    262144-cycle gmem latency, warm icaches
//   system_batch     16 DMA-staged matmul jobs (m=64, t=16) drained
//                    least-loaded by a 4-cluster System of mini clusters
//
// One operation is one full set-up plus one simulation. The seed reaches
// only the kernel builders. Every operation is checked: the run ends in
// eoc, the kernel's verify accepts it, the energy report is finite and
// the simulated cycles and instret equal the references recorded below.
// Operations repeat until --seconds is used up; set-ups are topped up with
// set-up-only repetitions so setup_s rests on many set-ups. Every host time
// is the fastest of the run's operations (see fastest).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates plain and
// profiled operations (ClusterConfig::profiling) and prints the per-layer
// metrics. The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// --out FILE writes the simulated counts of the last plain operation and, with
// --trace 1, every recorded span.
#include <sched.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/cluster.hpp"
#include "kernels/matmul.hpp"
#include "kernels/simple_kernels.hpp"
#include "power/operating_point.hpp"
#include "power/report.hpp"
#include "prof/profile.hpp"
#include "spans.hpp"
#include "sys/energy.hpp"
#include "sys/system.hpp"

using namespace mp3d;
using perfbench::Scope;
using perfbench::Tracer;

namespace {

constexpr u64 kMaxCycles = 50'000'000;
/// Set-ups last 3-30 ms, about one scheduler slice, so a single one is
/// noise; setup_s is taken over at least this many.
constexpr std::size_t kMinSetups = 101;

/// Simulated counts every operation of a workload must reproduce. They do
/// not depend on the seed: the kernels' timing is data-independent.
struct Reference {
  u64 cycles = 0;          ///< cluster cycles, or system cycles (makespan)
  u64 cluster_cycles = 0;  ///< summed over jobs (= cycles for one cluster)
  u64 instret = 0;
};

/// What one simulation produced.
struct Outcome {
  std::string error;  ///< "" when every check passed
  Reference sim;
  u64 core_cycles = 0;  ///< sum over clusters of cycles x cores
  u64 ff_cycles = 0;    ///< fast-forwarded cluster cycles
  u32 clusters = 1;
  sim::CounterSet counters;      ///< cluster counters summed over jobs
  sim::CounterSet sys_counters;  ///< System-level counters (system only)
  prof::ProfileReport prof;      ///< summed over jobs; empty when untraced
};

void add_profile(prof::ProfileReport& into, const prof::ProfileReport& rep) {
  into.stride = rep.stride;
  into.total_cycles += rep.total_cycles;
  into.sampled_cycles += rep.sampled_cycles;
  into.step_ns += rep.step_ns;
  for (std::size_t p = 0; p < prof::kNumPhases; ++p) {
    into.phase_ns[p] += rep.phase_ns[p];
  }
}

std::string check_energy(const power::EnergyReport& report) {
  const double nj = report.total_nj();
  return std::isfinite(nj) && nj > 0.0 ? "" : "energy report is not positive";
}

std::string check_reference(const Reference& got, const Reference& want) {
  if (got.cycles == want.cycles && got.cluster_cycles == want.cluster_cycles &&
      got.instret == want.instret) {
    return "";
  }
  return "simulated counts cycles=" + std::to_string(got.cycles) +
         " cluster_cycles=" + std::to_string(got.cluster_cycles) +
         " instret=" + std::to_string(got.instret) + " differ from the reference " +
         std::to_string(want.cycles) + "/" + std::to_string(want.cluster_cycles) +
         "/" + std::to_string(want.instret);
}

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Everything from the config to the first simulated cycle.
  virtual void setup(u64 seed, bool traced, Tracer& tracer) = 0;
  /// Simulate, verify and cost; reports failures in `out.error`.
  virtual void run(Tracer& tracer, Outcome& out) = 0;
  /// Drop the simulator, so the next set-up does not overlap it in memory.
  virtual void teardown() = 0;
};

/// One kernel on one bare Cluster, costed under the 2D and 3D flows.
class ClusterWorkload final : public Workload {
 public:
  using Builder = std::function<kernels::Kernel(const arch::ClusterConfig&, u64)>;

  ClusterWorkload(arch::ClusterConfig cfg, Builder build, Reference ref)
      : cfg_(std::move(cfg)), build_(std::move(build)), ref_(ref) {
    cfg_.validate();
  }

  void setup(u64 seed, bool traced, Tracer& tracer) override {
    arch::ClusterConfig cfg = cfg_;
    cfg.profiling.stride = traced ? cfg_.profiling.stride : 0;
    {
      Scope span(tracer, "kernels.build");
      kernel_ = build_(cfg, seed);
    }
    {
      Scope span(tracer, "arch.construct");
      cluster_ = std::make_unique<arch::Cluster>(cfg);
    }
    Scope span(tracer, "arch.load");
    cluster_->load_program(kernel_.program);
    kernel_.init(*cluster_);
    cluster_->warm_icaches();
  }

  void run(Tracer& tracer, Outcome& out) override {
    arch::RunResult result;
    {
      Scope span(tracer, "arch.run");
      result = cluster_->run(kMaxCycles);
    }
    if (!result.ok()) {
      out.error = "run did not end in eoc";
      return;
    }
    {
      Scope span(tracer, "kernels.verify");
      out.error = kernel_.verify(*cluster_, result);
    }
    if (!out.error.empty()) {
      return;
    }
    {
      Scope span(tracer, "power.account");
      const power::EnergyReport r2d = power::account(
          result, power::make_operating_point(cfg_, phys::Flow::k2D));
      const power::EnergyReport r3d = power::account(
          result, power::make_operating_point(cfg_, phys::Flow::k3D));
      out.error = check_energy(r2d) + check_energy(r3d);
      if (out.error.empty() && !(r3d.cluster_nj() < r2d.cluster_nj())) {
        out.error = "3D flow does not beat 2D on cluster energy";
      }
    }
    out.sim = {result.cycles, result.cycles, result.total_instret()};
    out.core_cycles = result.cycles * cfg_.num_cores();
    out.ff_cycles = cluster_->fast_forwarded_cycles();
    out.counters = result.counters;
    if (const prof::StepProfiler* profiler = cluster_->profiler()) {
      out.prof = profiler->report();
    }
    if (out.error.empty()) {
      out.error = check_reference(out.sim, ref_);
    }
  }

  void teardown() override { cluster_.reset(); }

 private:
  arch::ClusterConfig cfg_;
  Builder build_;
  Reference ref_;
  kernels::Kernel kernel_;
  std::unique_ptr<arch::Cluster> cluster_;
};

/// A batch of staged jobs on a multi-cluster System.
class SystemWorkload final : public Workload {
 public:
  SystemWorkload(sys::SystemConfig cfg, u32 jobs, kernels::MatmulParams params,
                 Reference ref)
      : cfg_(std::move(cfg)), jobs_(jobs), params_(params), ref_(ref) {
    cfg_.validate();
  }

  void setup(u64 seed, bool traced, Tracer& tracer) override {
    sys::SystemConfig cfg = cfg_;
    cfg.cluster.profiling.stride = traced ? cfg_.cluster.profiling.stride : 0;
    tally_ = Outcome{};
    {
      Scope span(tracer, "kernels.build");
      specs_.clear();
      const u64 mat_bytes = static_cast<u64>(params_.m) * params_.m * 4;
      const u32 staging = static_cast<u32>(cfg.cluster.gmem_base + MiB(1));
      for (u32 i = 0; i < jobs_; ++i) {
        sys::JobSpec job;
        job.name = "matmul" + std::to_string(i);
        job.kernel = kernels::build_matmul_dma(cfg.cluster, params_, seed + i);
        job.input_base = staging;
        job.input_bytes = 2 * mat_bytes;  // A and B
        job.output_base = static_cast<u32>(staging + 2 * mat_bytes);
        job.output_bytes = mat_bytes;  // C
        // The System calls verify right after a job's run ends and before
        // the cluster is reloaded: the last moment its profile is readable.
        job.kernel.verify = [inner = job.kernel.verify, &tracer, this](
                                arch::Cluster& cluster, const arch::RunResult& r) {
          if (const prof::StepProfiler* profiler = cluster.profiler()) {
            add_profile(tally_.prof, profiler->report());
          }
          tally_.ff_cycles += cluster.fast_forwarded_cycles();
          Scope verify(tracer, "kernels.verify");
          return inner(cluster, r);
        };
        specs_.push_back(std::move(job));
      }
    }
    Scope span(tracer, "arch.construct");
    system_ = std::make_unique<sys::System>(cfg);
  }

  void run(Tracer& tracer, Outcome& out) override {
    sys::SystemResult result;
    {
      Scope span(tracer, "sys.run_jobs");
      result = system_->run_jobs(std::move(specs_), kMaxCycles);
    }
    out = std::move(tally_);
    out.clusters = cfg_.num_clusters;
    for (const sys::JobRecord& job : result.jobs) {
      if (!job.ok() && out.error.empty()) {
        out.error = "job " + job.name + " failed: " +
                    (job.verify_error.empty() ? "no eoc" : job.verify_error);
      }
      out.sim.cluster_cycles += job.result.cycles;
      out.sim.instret += job.result.total_instret();
      out.counters.merge(job.result.counters);
    }
    out.sim.cycles = result.cycles;
    out.core_cycles = out.sim.cluster_cycles * cfg_.cluster.num_cores();
    out.sys_counters = result.counters;
    if (!result.ok && out.error.empty()) {
      out.error = "system run did not complete";
    }
    if (!out.error.empty()) {
      return;
    }
    {
      Scope span(tracer, "power.account");
      for (const phys::Flow flow : {phys::Flow::k2D, phys::Flow::k3D}) {
        const sys::SystemEnergyReport report = sys::account_system(
            result, power::make_operating_point(cfg_.cluster, flow), cfg_.icn);
        out.error += check_energy(report.clusters);
      }
    }
    if (out.error.empty()) {
      out.error = check_reference(out.sim, ref_);
    }
  }

  void teardown() override {
    system_.reset();
    specs_.clear();
  }

 private:
  sys::SystemConfig cfg_;
  u32 jobs_;
  kernels::MatmulParams params_;
  Reference ref_;
  std::vector<sys::JobSpec> specs_;
  std::unique_ptr<sys::System> system_;
  Outcome tally_;  ///< filled by the wrapped verify hooks during run_jobs
};

std::unique_ptr<Workload> make_workload(const std::string& name, bool tiny) {
  if (name == "paper_matmul") {
    arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(4));
    cfg.gmem_bytes_per_cycle = 16;
    cfg.profiling.stride = 64;
    kernels::MatmulParams p;
    p.t = tiny ? 32 : 128;
    p.m = tiny ? 32 : 256;
    const Reference ref = tiny ? Reference{2733, 2733, 122362}
                               : Reference{223883, 223883, 28451546};
    return std::make_unique<ClusterWorkload>(
        cfg,
        [p](const arch::ClusterConfig& c, u64 seed) {
          return kernels::build_matmul(c, p, seed);
        },
        ref);
  }
  if (name == "far_memory_axpy") {
    arch::ClusterConfig cfg = arch::ClusterConfig::mempool(MiB(1));
    cfg.gmem_latency = 262144;
    cfg.profiling.stride = 64;
    const u32 n = tiny ? 2048 : 262144;
    const Reference ref = tiny ? Reference{526509, 526509, 49259}
                               : Reference{2556743, 2556743, 1381899};
    return std::make_unique<ClusterWorkload>(
        cfg,
        [n](const arch::ClusterConfig& c, u64 seed) {
          return kernels::build_axpy_staged(c, n, 3, /*use_dma=*/true, 0, seed);
        },
        ref);
  }
  if (name == "system_batch") {
    sys::SystemConfig cfg;
    cfg.num_clusters = 4;
    cfg.cluster = arch::ClusterConfig::mini();
    cfg.policy = sys::SchedPolicy::kLeastLoaded;
    // A 16-core step costs a few clock reads' worth, so a sampled step is
    // not typical of the rest: time every step and extrapolate nothing.
    cfg.cluster.profiling.stride = 1;
    kernels::MatmulParams p;
    p.m = tiny ? 32 : 64;
    p.t = 16;
    p.markers = false;
    const Reference ref = tiny ? Reference{9975, 36780, 306152}
                               : Reference{270039, 1033968, 9242464};
    return std::make_unique<SystemWorkload>(cfg, tiny ? 4 : 16, p, ref);
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// The host time of a run: its fastest operation. The simulation is
/// deterministic, so an operation only reads slower than its code when the
/// shared host takes the CPU away from it, in bursts that slow it up to
/// twofold and in slower phases that last minutes. How many operations they
/// hit varies from run to run and moves the median with it; the fastest
/// operation stays closest to what the code costs.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::map<std::string, Metric>;

/// One operation's span totals, keyed by span name.
using SpanTotals = std::map<std::string, double>;

SpanTotals span_totals(const Tracer& tracer, unsigned long long op) {
  SpanTotals totals;
  for (const perfbench::Span& span : tracer.spans()) {
    if (span.op == op) {
      totals[span.name] += span.duration();
    }
  }
  return totals;
}

/// Fastest time of each span name over several operations (absent counts
/// as 0).
SpanTotals fastest_totals(const std::vector<SpanTotals>& ops) {
  std::map<std::string, std::vector<double>> values;
  for (const SpanTotals& totals : ops) {
    for (const auto& [name, seconds] : totals) {
      values[name];
    }
  }
  SpanTotals out;
  for (auto& [name, v] : values) {
    for (const SpanTotals& totals : ops) {
      const auto it = totals.find(name);
      v.push_back(it == totals.end() ? 0.0 : it->second);
    }
    out[name] = fastest(v);
  }
  return out;
}

using Ops = std::vector<std::pair<SpanTotals, Outcome>>;

/// What the profiled operations say: each phase's share of Cluster::step
/// time, the profile's coverage, and the System driver's own time (the
/// part of run_jobs outside every Cluster::step and verify call, which the
/// profiler's clock reads inside the steps do not inflate). Shares are
/// medians over operations, the driver's time is the fastest.
struct ProfileShares {
  std::array<double, prof::kNumPhases> phase{};
  double coverage = 0.0;
  double driver_self_s = 0.0;
};

ProfileShares profile_shares(const Ops& ops) {
  std::vector<std::vector<double>> phase(prof::kNumPhases);
  std::vector<double> coverage;
  std::vector<double> driver_self;
  for (auto [totals, out] : ops) {
    for (std::size_t p = 0; p < prof::kNumPhases; ++p) {
      phase[p].push_back(out.prof.phase_frac(static_cast<prof::Phase>(p)));
    }
    coverage.push_back(out.prof.coverage());
    driver_self.push_back(totals["sys.run_jobs"] - out.prof.est_step_ms() * 1e-3 -
                          totals["kernels.verify"]);
  }
  ProfileShares shares;
  for (std::size_t p = 0; p < prof::kNumPhases; ++p) {
    shares.phase[p] = median(phase[p]);
  }
  shares.coverage = median(coverage);
  shares.driver_self_s = fastest(driver_self);
  return shares;
}

/// Per-layer metrics: span times `t` from plain operations, phase shares
/// from profiled ones, simulated counts from `o`.
Metrics layer_metrics(const Outcome& o, SpanTotals t, const ProfileShares& p) {
  const sim::CounterSet& c = o.counters;
  const double cycles = static_cast<double>(o.sim.cluster_cycles);
  const double core_cycles = static_cast<double>(o.core_cycles);
  const double instret = static_cast<double>(o.sim.instret);
  const bool system = o.clusters > 1;
  // On a System the clusters step inside run_jobs: their time is what the
  // driver's own time and the verify calls leave of it.
  const double run_jobs_s = t["sys.run_jobs"];
  const double driver_self_s = system ? p.driver_self_s : 0.0;
  const double run_s =
      system ? run_jobs_s - driver_self_s - t["kernels.verify"] : t["arch.run"];
  const auto frac = [&](prof::Phase phase) {
    return p.phase[static_cast<std::size_t>(phase)];
  };

  u64 stalls = 0;
  for (const auto& [name, value] : c.all()) {
    if (name.rfind("core.stall_", 0) == 0) {
      stalls += value;
    }
  }
  const double flits =
      static_cast<double>(c.get("noc.req_flits") + c.get("noc.resp_flits"));
  const double ff = static_cast<double>(o.ff_cycles);
  const auto count = [&](const char* name) {
    return static_cast<double>(c.get(name));
  };

  Metrics m;
  m["kernels.build_s"] = {t["kernels.build"], "s"};
  m["arch.construct_s"] = {t["arch.construct"], "s"};
  m["arch.load_s"] = {t["arch.load"], "s"};
  m["arch.run_s"] = {run_s, "s"};
  m["kernels.verify_s"] = {t["kernels.verify"], "s"};
  m["power.account_s"] = {t["power.account"], "s"};
  for (std::size_t ph = 0; ph < prof::kNumPhases; ++ph) {
    const auto phase = static_cast<prof::Phase>(ph);
    m[std::string("prof.") + prof::phase_name(phase)] = {frac(phase), "frac"};
  }
  m["prof.coverage"] = {p.coverage, "frac"};
  m["core.instret"] = {instret, "count"};
  m["core.ipc"] = {ratio(instret, core_cycles), "instr/cycle"};
  m["core.stall_frac"] = {ratio(static_cast<double>(stalls), core_cycles), "frac"};
  m["core.wfi_frac"] = {ratio(count("core.wfi_cycles"), core_cycles), "frac"};
  m["core.host_ns_per_instr"] = {
      ratio(frac(prof::Phase::kCores) * run_s * 1e9, instret), "ns"};
  m["noc.flits_per_cycle"] = {ratio(flits, cycles), "flits/cycle"};
  m["noc.host_ns_per_flit"] = {
      ratio(frac(prof::Phase::kNoc) * run_s * 1e9, flits), "ns"};
  m["bank.conflict_rate"] = {
      ratio(count("bank.conflicts"), count("bank.accesses")), "frac"};
  m["gmem.busy_frac"] = {ratio(count("gmem.busy_cycles"), cycles), "frac"};
  m["dma.bytes"] = {count("dma.bytes"), "B"};
  m["dma.descriptors"] = {count("dma.descriptors"), "count"};
  m["arch.ff_frac"] = {ratio(ff, cycles), "frac"};
  m["arch.host_ns_per_awake_cycle"] = {ratio(run_s * 1e9, cycles - ff), "ns"};
  m["sys.run_jobs_s"] = {run_jobs_s, "s"};
  m["sys.driver_self_s"] = {driver_self_s, "s"};
  m["sys.icn.bytes"] = {
      static_cast<double>(o.sys_counters.get("sys.icn.bytes")), "B"};
  m["sys.icn.starved_claims"] = {
      static_cast<double>(o.sys_counters.get("sys.icn.starved_claims")), "count"};
  m["sys.cluster_util"] = {
      ratio(system ? cycles : 0.0,
            static_cast<double>(o.clusters) * static_cast<double>(o.sim.cycles)),
      "frac"};
  return m;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += ch;
  }
  return out + "\"";
}

void write_out(const std::string& path, const Outcome& last, const Tracer& tracer,
               bool with_spans) {
  std::ofstream f(path);
  f << "{\"sim\": {\"cycles\": " << last.sim.cycles
    << ", \"cluster_cycles\": " << last.sim.cluster_cycles
    << ", \"instret\": " << last.sim.instret << ", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : last.counters.all()) {
    f << (first ? "" : ", ") << json_string(name) << ": " << value;
    first = false;
  }
  f << "}}, \"spans\": [";
  if (with_spans) {
    first = true;
    for (const perfbench::Span& s : tracer.spans()) {
      f << (first ? "\n" : ",\n") << "{\"name\": " << json_string(s.name)
        << ", \"start\": " << json_number(s.start_s)
        << ", \"end\": " << json_number(s.end_s) << ", \"parent\": " << s.parent
        << ", \"op\": " << s.op << "}";
      first = false;
    }
  }
  f << "]}\n";
  if (!f) {
    throw std::runtime_error("cannot write " + path);
  }
}

/// Moves the process to the next CPU it may run on, round robin. Cores of a
/// shared host differ in speed from minute to minute (one ran set-ups 1.4x
/// slower than its siblings), so a run that stayed on the core the
/// scheduler happened to pick would measure that core, not the host.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }

  void next() {
    if (cpus_.size() < 2) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);  // best effort: stay put on failure
  }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Peak resident set of this process image in KiB: VmHWM, which starts
/// afresh at exec. getrusage's ru_maxrss would carry over the peak of the
/// process that exec'd the runner (run.py's Python, larger than ours).
double peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6));
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::unique_ptr<Workload> workload;
  try {
    args = parse_args(argc, argv);
    workload = make_workload(args.workload, args.tiny);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  Tracer tracer;
  unsigned long long next_op = 0;
  u64 attempted = 0;
  u64 failed = 0;
  double peak_rss_mb = 0.0;
  // Per mode (0 plain, 1 profiled): span totals of every set-up, and of
  // every simulated operation with its outcome.
  std::vector<SpanTotals> setups[2];
  Ops ops[2];

  CpuRotation cpus;
  const auto operation = [&](bool profiled, bool simulate) {
    cpus.next();
    const unsigned long long op = ++next_op;
    tracer.begin_op(op);
    Outcome out;
    {
      Scope root(tracer, "bench.op");
      try {
        {
          Scope span(tracer, "bench.setup");
          workload->setup(args.seed, profiled, tracer);
        }
        if (simulate) {
          Scope span(tracer, "bench.wall");
          workload->run(tracer, out);
        }
      } catch (const std::exception& e) {
        out.error = e.what();
      }
    }
    workload->teardown();
    const SpanTotals totals = span_totals(tracer, op);
    setups[profiled].push_back(totals);
    if (!simulate) {
      return;
    }
    if (++attempted == 1) {
      // Only the first operation counts, so the peak does not depend on how
      // many operations the run fits in.
      peak_rss_mb = peak_rss_kib() / 1024.0;
    }
    if (!out.error.empty()) {
      ++failed;
      std::cerr << "perfbench: " << args.workload << " operation " << op
                << " failed: " << out.error << "\n";
    }
    ops[profiled].emplace_back(totals, std::move(out));
  };

  // Plain runs simulate untraced; traced runs alternate a plain and a
  // profiled operation so trace.overhead compares like with like.
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  double round_s = 0.0;
  do {
    const double round_start = elapsed();
    operation(false, true);
    if (args.trace) {
      operation(true, true);
    }
    round_s = elapsed() - round_start;
    // Spread the set-up-only repetitions over the rounds still to come, so
    // one burst of host noise cannot move every sample of setup_s at once.
    const double more_rounds =
        std::floor(std::max(0.0, args.seconds - elapsed()) / round_s);
    const double missing = static_cast<double>(kMinSetups) -
                           static_cast<double>(setups[0].size());
    for (double i = 0; i < std::ceil(missing / (more_rounds + 1)); ++i) {
      operation(false, false);
    }
  } while (elapsed() + round_s <= args.seconds);
  while (setups[0].size() < kMinSetups) {
    operation(false, false);
  }

  const auto wall_of = [](const Ops& v) {
    std::vector<double> walls;
    for (const auto& [totals, out] : v) {
      if (out.error.empty()) {
        walls.push_back(totals.at("bench.wall"));
      }
    }
    return fastest(walls);
  };

  // Simulated counts repeat exactly, so any plain operation gives them.
  const Outcome& counts = ops[0].back().second;
  Metrics metrics;
  if (!args.trace) {
    std::vector<double> setup_s;
    for (const SpanTotals& t : setups[0]) {
      setup_s.push_back(t.at("bench.setup"));
    }
    const double wall_s = wall_of(ops[0]);
    metrics["wall_s"] = {wall_s, "s"};
    metrics["setup_s"] = {fastest(setup_s), "s"};
    metrics["ns_per_core_cycle"] = {
        ratio(wall_s * 1e9, static_cast<double>(counts.core_cycles)), "ns"};
    metrics["sim_mips"] = {
        ratio(static_cast<double>(counts.sim.instret), wall_s * 1e6), "instr/us"};
    metrics["peak_rss_mb"] = {peak_rss_mb, "MB"};
  } else {
    // Spans from plain operations (set-ups: every plain set-up), phase
    // shares from profiled ones; the profiler bounds fast-forward jumps to
    // its stride, so it must not time the layers it is not splitting.
    std::vector<SpanTotals> plain;
    for (const auto& [totals, out] : ops[0]) {
      plain.push_back(totals);
    }
    SpanTotals spans = fastest_totals(plain);
    const SpanTotals setup_spans = fastest_totals(setups[0]);
    for (const char* name : {"kernels.build", "arch.construct", "arch.load"}) {
      const auto it = setup_spans.find(name);
      spans[name] = it == setup_spans.end() ? 0.0 : it->second;
    }
    metrics = layer_metrics(counts, spans, profile_shares(ops[1]));
    metrics["trace.overhead"] = {ratio(wall_of(ops[1]), wall_of(ops[0])) - 1.0,
                                 "frac"};
  }

  if (!args.out.empty()) {
    try {
      write_out(args.out, counts, tracer, args.trace);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return 1;
    }
  }

  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::cout << (first ? "" : ", ") << json_string(name)
              << ": {\"value\": " << json_number(metric.value)
              << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return 0;
}
