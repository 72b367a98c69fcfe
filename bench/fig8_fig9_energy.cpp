// SPDX-License-Identifier: Apache-2.0
// Regenerates Figure 8 — energy-efficiency gain vs SPM capacity — and
// Figure 9 — energy-delay-product variation vs SPM capacity (lower is
// better) — from one *simulation* sweep: every paper capacity point
// ({1,2,4,8} MiB) runs the capacity-scaled matmul once on the
// cycle-accurate simulator and costs the measured event counters under the
// 2D and 3D operating points through src/power/; EDP = on-die energy x
// runtime at each implementation's achieved frequency. The analytical
// CoExplorer curves are printed alongside as the cross-check reference.
// The paper's annotations are the 3D-vs-2D values at the same capacity:
// Fig. 8 efficiency +14.0/+14.5/+18.4/+16.5 %, Fig. 9 EDP
// -15.6/-17.3/-22.6/-18.2 %.
//
// Gates (exit nonzero on violation), per capacity and figure:
//   - fig8/fig9 cross-check: the simulation-derived 3D-over-2D efficiency
//     gain / EDP variation agrees with CoExplorer's analytical curve
//     within core::kEnergyCrossCheckTolerance (5 pp; measured ~1 pp);
//   - fig8: 3D beats 2D on on-die energy;
//   - fig9: 3D has strictly lower on-die EDP than 2D.
//
// Scenario runs are independent cluster simulations, so --jobs N scales
// the sweep across host cores with bit-identical CSV output.
#include <cmath>

#include "bench_util.hpp"
#include "core/coexplore.hpp"
#include "exp/scenarios_energy.hpp"
#include "exp/suite.hpp"

using namespace mp3d;

namespace {

/// |sim - model| of the 3D-over-2D metric `key` ("gain_eff_3d2d" or
/// "var_edp_3d2d") at scenario `name`, "" when within tolerance.
std::string cross_check(const exp::SweepReport& report, const std::string& name,
                        const std::string& key) {
  const auto sim = report.metric(name, key + "_sim");
  const auto model = report.metric(name, key + "_model");
  if (!sim || !model) {
    return "scenario did not run";
  }
  const double err = std::abs(*sim - *model);
  if (err > core::kEnergyCrossCheckTolerance) {
    return "sim " + fmt_pct(*sim) + " vs model " + fmt_pct(*model) +
           " (|err| " + fmt_fixed(err * 100, 1) + " pp > tolerance)";
  }
  return std::string();
}

void print_figure(const exp::SweepReport& report, const char* title,
                  const std::string& key, bool edp) {
  Table table(title);
  table.header({"SPM", "t", "cycles", edp ? "EDP2D nJ*s" : "E2D uJ",
                edp ? "EDP3D nJ*s" : "E3D uJ", "3D vs 2D sim", "model", "(paper)",
                "err [pp]"});
  for (const exp::ScenarioResult& r : report.results) {
    if (!r.ok()) {
      continue;
    }
    const auto m = [&](const std::string& metric) {
      return report.metric(r.name, metric).value_or(0.0);
    };
    table.row({bench::cap_name(MiB(static_cast<u64>(m("capacity_mib")))),
               fmt_fixed(m("t"), 0), fmt_count(m("cycles")),
               edp ? fmt_norm(m("edp_cluster_2d") * 1e-6, 3)
                   : fmt_fixed(m("cluster_uj_2d"), 1),
               edp ? fmt_norm(m("edp_cluster_3d") * 1e-6, 3)
                   : fmt_fixed(m("cluster_uj_3d"), 1),
               fmt_pct(m(key + "_sim")), fmt_pct(m(key + "_model")),
               fmt_pct(m(key + "_paper")),
               fmt_fixed(std::abs(m(key + "_sim") - m(key + "_model")) * 100, 2)});
  }
  std::printf("%s\n", table.to_string().c_str());
}

exp::Suite make_suite(const exp::CliOptions& opt) {
  exp::Suite suite;
  suite.name = opt.smoke ? "fig8_fig9_energy_smoke" : "fig8_fig9_energy";
  suite.perf_record = "sim_fig8_fig9";
  suite.title = "Figures 8 and 9 - energy efficiency and EDP (simulation-driven)";
  exp::register_energy_scenarios(suite.registry, opt.smoke);

  // Cross-scenario derived columns vs the simulated 2D 1 MiB baseline. The
  // workload is scaled per capacity, so both normalize by work: efficiency
  // per MAC (Fig. 8) and EDP/MAC^2 (Fig. 9).
  suite.finalize = [](exp::SweepReport& report) {
    const std::string base = exp::energy_scenario_name(MiB(1));
    const auto base_macs = report.metric(base, "macs");
    const auto base_uj = report.metric(base, "cluster_uj_2d");
    const auto base_edp = report.metric(base, "edp_cluster_2d");
    if (!base_macs || !base_uj || !base_edp) {
      return;  // filtered run without the baseline scenario
    }
    const double base_eff = *base_macs / *base_uj;
    const double base_norm = *base_edp / (*base_macs * *base_macs);
    for (exp::ScenarioResult& r : report.results) {
      const auto macs = report.metric(r.name, "macs");
      const auto uj_2d = report.metric(r.name, "cluster_uj_2d");
      const auto uj_3d = report.metric(r.name, "cluster_uj_3d");
      const auto edp_2d = report.metric(r.name, "edp_cluster_2d");
      const auto edp_3d = report.metric(r.name, "edp_cluster_3d");
      if (!macs || !uj_2d || !uj_3d || !edp_2d || !edp_3d) {
        continue;
      }
      for (exp::Row& row : r.output.rows) {
        const bool is_3d = row.get("flow") == "3D";
        const double eff = *macs / (is_3d ? *uj_3d : *uj_2d);
        const double norm = (is_3d ? *edp_3d : *edp_2d) / (*macs * *macs);
        row.cell("gain_vs_baseline_sim", eff / base_eff - 1.0, 4)
            .cell("var_vs_baseline_sim", norm / base_norm - 1.0, 4);
      }
    }
  };

  suite.report = [](const exp::SweepReport& report) {
    print_figure(report, "Figure 8 - energy efficiency, simulated per capacity point",
                 "gain_eff_3d2d", /*edp=*/false);
    print_figure(report,
                 "Figure 9 - EDP, simulated per capacity point (lower=better)",
                 "var_edp_3d2d", /*edp=*/true);
    std::printf("3D-over-2D efficiency gains and EDP variations are "
                "simulation-derived (src/power/\nevent accounting); the "
                "analytical CoExplorer curves are the cross-check reference, "
                "tolerance %.0f pp.\n\n",
                core::kEnergyCrossCheckTolerance * 100);
  };

  // Gates: per-capacity agreement with the analytical model, and the
  // paper's headline direction (3D strictly more efficient on-die, with
  // strictly lower EDP).
  for (const u64 capacity : exp::paper_capacities()) {
    const std::string name = exp::energy_scenario_name(capacity);
    suite.gate("fig8 cross-check " + name, [name](const exp::SweepReport& report) {
      return cross_check(report, name, "gain_eff_3d2d");
    });
    suite.gate("fig8 3D beats 2D " + name, [name](const exp::SweepReport& report) {
      const auto gain = report.metric(name, "gain_eff_3d2d_sim");
      if (!gain) {
        return std::string("scenario did not run");
      }
      if (*gain <= 0.0) {
        return "3D on-die efficiency gain is " + fmt_pct(*gain);
      }
      return std::string();
    });
    suite.gate("fig9 cross-check " + name, [name](const exp::SweepReport& report) {
      return cross_check(report, name, "var_edp_3d2d");
    });
    suite.gate("fig9 3D lower EDP " + name, [name](const exp::SweepReport& report) {
      const auto var = report.metric(name, "var_edp_3d2d_sim");
      if (!var) {
        return std::string("scenario did not run");
      }
      if (*var >= 0.0) {
        return "3D on-die EDP variation is " + fmt_pct(*var);
      }
      return std::string();
    });
  }
  return suite;
}

}  // namespace

int main(int argc, char** argv) { return exp::suite_main(argc, argv, make_suite); }
