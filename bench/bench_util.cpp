#include "bench_util.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace dsem::bench {

Rig::Rig()
    : v100_sim(sim::v100(), sim::NoiseConfig{}, 0x51CA),
      mi100_sim(sim::mi100(), sim::NoiseConfig{}, 0x51CB),
      v100(v100_sim), mi100(mi100_sim) {}

void print_characterization(std::ostream& os, const std::string& title,
                            const core::Characterization& c) {
  print_banner(os, title);
  if (!c.baseline_ok || c.points.empty()) {
    os << "characterization unavailable: "
       << (c.baseline_ok ? "every frequency point"
                         : "the default-clock baseline")
       << " exhausted its retries (" << fmt(c.failed_freqs.size())
       << " frequencies lost)\n";
    return;
  }
  os << "default: " << fmt(c.default_freq_mhz, 0) << " MHz, "
     << fmt(c.default_time_s, 4) << " s, " << fmt(c.default_energy_j, 2)
     << " J\n\n";

  Table table({"freq_mhz", "time_s", "energy_j", "speedup", "norm_energy",
               "pareto"});
  for (const auto& p : c.points) {
    table.add_row({fmt(p.freq_mhz, 1), fmt(p.time_s, 6), fmt(p.energy_j, 3),
                   fmt(p.speedup, 4), fmt(p.norm_energy, 4),
                   p.pareto ? "*" : ""});
  }
  table.print_csv(os);
  if (!c.failed_freqs.empty()) {
    os << "\n(" << fmt(c.failed_freqs.size())
       << " frequencies lost to exhausted retries)\n";
  }

  const auto& top = c.points.back();
  os << "\nsummary: max-clock speedup " << fmt_percent(top.speedup - 1.0)
     << " at energy " << fmt_percent(top.norm_energy - 1.0)
     << "; best saving " << fmt_percent(c.best_energy_saving(0.02))
     << " at <=2% loss, " << fmt_percent(c.best_energy_saving(0.15))
     << " at <=15% loss; Pareto set size "
     << fmt(c.pareto_indices().size()) << "\n";
}

EnergyTimeSeries sweep_series(synergy::Device& device,
                              const core::Workload& workload,
                              const std::string& label, int repetitions) {
  EnergyTimeSeries out;
  out.label = label;
  const auto sweep = core::sweep_frequencies(device, workload, repetitions);
  for (const auto& sp : sweep) {
    out.freqs_mhz.push_back(sp.freq_mhz);
    out.time_s.push_back(sp.m.time_s);
    out.energy_j.push_back(sp.m.energy_j);
  }
  return out;
}

void print_energy_time(std::ostream& os, const std::string& title,
                       std::span<const EnergyTimeSeries> series) {
  print_banner(os, title);
  Table table({"series", "freq_mhz", "time_s", "energy_kj"});
  for (const auto& s : series) {
    for (std::size_t i = 0; i < s.freqs_mhz.size(); ++i) {
      table.add_row({s.label, fmt(s.freqs_mhz[i], 1), fmt(s.time_s[i], 4),
                     fmt(s.energy_j[i] / 1000.0, 4)});
    }
  }
  table.print_csv(os);
  os << "\nsummary (at the device default/auto clock):\n";
  for (const auto& s : series) {
    // Default sits mid-schedule; report the last point as the max-clock
    // anchor and min/max across the sweep.
    const auto [tmin, tmax] =
        std::minmax_element(s.time_s.begin(), s.time_s.end());
    const auto [emin, emax] =
        std::minmax_element(s.energy_j.begin(), s.energy_j.end());
    os << "  " << s.label << ": time " << fmt(*tmin, 3) << ".."
       << fmt(*tmax, 3) << " s, energy " << fmt(*emin / 1000.0, 3) << ".."
       << fmt(*emax / 1000.0, 3) << " kJ\n";
  }
}

void print_accuracy_report(std::ostream& os, const std::string& title,
                           const core::AccuracyReport& report) {
  print_banner(os, title);
  Table table({"input", "gp_speedup_mape", "ds_speedup_mape",
               "gp_energy_mape", "ds_energy_mape", "speedup_gain",
               "energy_gain"});
  for (const auto& row : report.rows) {
    table.add_row({row.input, fmt(row.gp_speedup_mape, 4),
                   fmt(row.ds_speedup_mape, 4), fmt(row.gp_energy_mape, 4),
                   fmt(row.ds_energy_mape, 4),
                   fmt(row.gp_speedup_mape /
                           std::max(row.ds_speedup_mape, 1e-12),
                       1) + "x",
                   fmt(row.gp_energy_mape /
                           std::max(row.ds_energy_mape, 1e-12),
                       1) + "x"});
  }
  table.print(os);
  os << "\nworst-case accuracy gain of the domain-specific model: speedup "
     << fmt(report.worst_speedup_gain(), 1) << "x, energy "
     << fmt(report.worst_energy_gain(), 1) << "x\n";
}

void print_pareto_evaluation(std::ostream& os, const std::string& title,
                             const core::ParetoEvaluation& eval) {
  print_banner(os, title);
  const auto contains = [](std::span<const std::size_t> set, std::size_t i) {
    return std::find(set.begin(), set.end(), i) != set.end();
  };
  Table table({"freq_mhz", "speedup", "norm_energy", "true_pareto",
               "gp_predicted", "ds_predicted"});
  for (std::size_t i = 0; i < eval.truth.freqs_mhz.size(); ++i) {
    const bool any = contains(eval.true_front, i) ||
                     contains(eval.gp_front, i) || contains(eval.ds_front, i);
    if (!any) {
      continue;
    }
    table.add_row({fmt(eval.truth.freqs_mhz[i], 1),
                   fmt(eval.truth.speedup[i], 4),
                   fmt(eval.truth.norm_energy[i], 4),
                   contains(eval.true_front, i) ? "*" : "",
                   contains(eval.gp_front, i) ? "*" : "",
                   contains(eval.ds_front, i) ? "*" : ""});
  }
  table.print(os);
  os << "\ntrue Pareto set: " << fmt(eval.true_front.size())
     << " configs\n  general-purpose: " << fmt(eval.gp_front.size())
     << " predicted, " << fmt(eval.gp_cmp.exact_matches)
     << " exact matches, distance " << fmt(eval.gp_cmp.generational_distance, 4)
     << "\n  domain-specific: " << fmt(eval.ds_front.size()) << " predicted, "
     << fmt(eval.ds_cmp.exact_matches) << " exact matches, distance "
     << fmt(eval.ds_cmp.generational_distance, 4) << "\n";
}

void print_family_accuracy(std::ostream& os, const std::string& title,
                           const core::AccuracyReport& ds,
                           const core::AccuracyReport& hybrid) {
  print_banner(os, title);
  DSEM_ENSURE(!ds.rows.empty() && ds.rows.size() == hybrid.rows.size(),
              "family accuracy: reports must cover the same inputs");
  Table table({"input", "gp_speedup_mape", "ds_speedup_mape",
               "hy_speedup_mape", "gp_energy_mape", "ds_energy_mape",
               "hy_energy_mape"});
  // Per-family MAPE means, summed in row order.
  double gp_speedup = 0.0;
  double ds_speedup = 0.0;
  double hy_speedup = 0.0;
  double gp_energy = 0.0;
  double ds_energy = 0.0;
  double hy_energy = 0.0;
  for (std::size_t i = 0; i < ds.rows.size(); ++i) {
    const core::AccuracyRow& d = ds.rows[i];
    const core::AccuracyRow& h = hybrid.rows[i];
    DSEM_ENSURE(d.input == h.input,
                "family accuracy: reports must cover the same inputs");
    table.add_row({d.input, fmt(d.gp_speedup_mape, 4),
                   fmt(d.ds_speedup_mape, 4), fmt(h.ds_speedup_mape, 4),
                   fmt(d.gp_energy_mape, 4), fmt(d.ds_energy_mape, 4),
                   fmt(h.ds_energy_mape, 4)});
    gp_speedup += d.gp_speedup_mape;
    ds_speedup += d.ds_speedup_mape;
    hy_speedup += h.ds_speedup_mape;
    gp_energy += d.gp_energy_mape;
    ds_energy += d.ds_energy_mape;
    hy_energy += h.ds_energy_mape;
  }
  table.print(os);
  const auto n = static_cast<double>(ds.rows.size());
  os << "\nmean speedup MAPE: gp " << fmt(gp_speedup / n, 4) << ", ds "
     << fmt(ds_speedup / n, 4) << ", hybrid " << fmt(hy_speedup / n, 4)
     << "\nmean energy MAPE:  gp " << fmt(gp_energy / n, 4) << ", ds "
     << fmt(ds_energy / n, 4) << ", hybrid " << fmt(hy_energy / n, 4)
     << "\n";
}

void print_family_pareto(std::ostream& os, const std::string& title,
                         const core::ParetoEvaluation& ds,
                         const core::ParetoEvaluation& hybrid) {
  print_banner(os, title);
  const auto contains = [](std::span<const std::size_t> set, std::size_t i) {
    return std::find(set.begin(), set.end(), i) != set.end();
  };
  Table table({"freq_mhz", "speedup", "norm_energy", "true_pareto",
               "gp_predicted", "ds_predicted", "hy_predicted"});
  for (std::size_t i = 0; i < ds.truth.freqs_mhz.size(); ++i) {
    const bool any = contains(ds.true_front, i) || contains(ds.gp_front, i) ||
                     contains(ds.ds_front, i) || contains(hybrid.ds_front, i);
    if (!any) {
      continue;
    }
    table.add_row({fmt(ds.truth.freqs_mhz[i], 1), fmt(ds.truth.speedup[i], 4),
                   fmt(ds.truth.norm_energy[i], 4),
                   contains(ds.true_front, i) ? "*" : "",
                   contains(ds.gp_front, i) ? "*" : "",
                   contains(ds.ds_front, i) ? "*" : "",
                   contains(hybrid.ds_front, i) ? "*" : ""});
  }
  table.print(os);
  os << "\ntrue Pareto set: " << fmt(ds.true_front.size())
     << " configs\n  general-purpose: " << fmt(ds.gp_front.size())
     << " predicted, " << fmt(ds.gp_cmp.exact_matches)
     << " exact matches, distance " << fmt(ds.gp_cmp.generational_distance, 4)
     << "\n  domain-specific: " << fmt(ds.ds_front.size()) << " predicted, "
     << fmt(ds.ds_cmp.exact_matches) << " exact matches, distance "
     << fmt(ds.ds_cmp.generational_distance, 4) << "\n  hybrid:          "
     << fmt(hybrid.ds_front.size()) << " predicted, "
     << fmt(hybrid.ds_cmp.exact_matches) << " exact matches, distance "
     << fmt(hybrid.ds_cmp.generational_distance, 4) << "\n";
}

void print_extrapolation(std::ostream& os, const std::string& title,
                         const core::ExtrapolationReport& ds,
                         const core::ExtrapolationReport& hybrid) {
  print_family_accuracy(os, title, ds.accuracy, hybrid.accuracy);
  os << "held-out (largest) inputs:";
  for (const std::string& name : ds.held_out) {
    os << " " << name;
  }
  os << "\n";
}

std::vector<std::unique_ptr<core::Workload>> cronos_workloads(int steps) {
  std::vector<std::unique_ptr<core::Workload>> out;
  for (int n : {10, 20, 30, 40, 60, 80, 120, 160}) {
    const int side = std::max(4, n * 2 / 5);
    out.push_back(std::make_unique<core::CronosWorkload>(
        cronos::GridDims{n, side, side}, steps));
  }
  return out;
}

std::vector<std::string> cronos_reported() {
  return {"10x4x4", "20x8x8", "40x16x16", "80x32x32", "160x64x64"};
}

std::vector<std::unique_ptr<core::Workload>> ligen_workloads() {
  // The paper's §5.1 ligand counts plus intermediates (128..512) bracketing
  // the device's occupancy transition, so every (atoms, fragments) branch
  // of the tuple grid samples that regime densely enough for LOOCV folds
  // to interpolate (EXPERIMENTS.md records this as experimental design).
  std::vector<std::unique_ptr<core::Workload>> out;
  for (int ligands : {2, 16, 128, 192, 256, 384, 512, 1024, 4096, 10000}) {
    for (int atoms : {31, 63, 74, 89}) {
      for (int frags : {4, 8, 16, 20}) {
        out.push_back(
            std::make_unique<core::LigenWorkload>(ligands, atoms, frags));
      }
    }
  }
  return out;
}

std::vector<std::string> ligen_reported() {
  std::vector<std::string> out;
  for (int atoms : {31, 89}) {
    for (int frags : {4, 20}) {
      for (int ligands : {256, 4096, 10000}) {
        out.push_back(core::LigenWorkload(ligands, atoms, frags).name());
      }
    }
  }
  return out;
}

} // namespace dsem::bench
