#include "analysis/surface.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace isoee::analysis {

namespace {

/// Evaluates one row per p as one batch on the executor. Each row is written into its
/// preallocated slot, so the grid layout (and every value — pure arithmetic on
/// the fitted model) is independent of the thread budget.
void fill_rows(EeSurface& s, exec::Executor& exec,
               const std::function<double(int, double)>& cell) {
  s.ee.assign(s.ps.size(), {});
  std::vector<exec::Case> cases;
  cases.reserve(s.ps.size());
  for (std::size_t i = 0; i < s.ps.size(); ++i) {
    exec::Case c;
    c.run = [&s, &cell, i]() -> std::string {
      std::vector<double> row;
      row.reserve(s.cols.size());
      for (double col : s.cols) row.push_back(cell(s.ps[i], col));
      s.ee[i] = std::move(row);
      return std::string();
    };
    cases.push_back(std::move(c));
  }
  exec.run(cases);
}

}  // namespace

EeSurface ee_surface_pf(const model::MachineParams& machine,
                        const model::WorkloadModel& workload, double n,
                        std::span<const int> ps, std::span<const double> fs_ghz,
                        exec::Executor& exec) {
  EeSurface s{.title = workload.name() + " EE(p, f), n = " + util::num(n, 0),
              .col_axis = "f (GHz)",
              .ps = {ps.begin(), ps.end()},
              .cols = {fs_ghz.begin(), fs_ghz.end()},
              .ee = {}};
  fill_rows(s, exec,
            [&](int p, double f) { return model::ee_at(machine, workload, n, p, f); });
  return s;
}

EeSurface ee_surface_pn(const model::MachineParams& machine,
                        const model::WorkloadModel& workload, double f_ghz,
                        std::span<const int> ps, std::span<const double> ns,
                        exec::Executor& exec) {
  EeSurface s{.title = workload.name() + " EE(p, n), f = " + util::num(f_ghz, 1) + " GHz",
              .col_axis = "n",
              .ps = {ps.begin(), ps.end()},
              .cols = {ns.begin(), ns.end()},
              .ee = {}};
  fill_rows(s, exec,
            [&](int p, double n) { return model::ee_at(machine, workload, n, p, f_ghz); });
  return s;
}

util::Table surface_table(const EeSurface& surface) {
  std::vector<std::string> header = {"p \\ " + surface.col_axis};
  for (double c : surface.cols) {
    header.push_back(c >= 1000.0 ? util::sci(c, 1) : util::num(c, 2));
  }
  util::Table table(std::move(header));
  for (std::size_t i = 0; i < surface.ps.size(); ++i) {
    std::vector<std::string> row = {util::num(surface.ps[i])};
    for (double v : surface.ee[i]) row.push_back(util::num(v, 4));
    table.add_row(std::move(row));
  }
  return table;
}

std::string surface_ascii(const EeSurface& surface) {
  // 10-step shade ramp from low EE to high EE.
  static constexpr char kRamp[] = " .:-=+*%@#";
  std::string out = surface.title + "  (rows: p descending; cols: " + surface.col_axis +
                    " ascending; '#' = EE near 1)\n";
  for (std::size_t i = surface.ps.size(); i-- > 0;) {
    out += "p=";
    std::string label = util::num(surface.ps[i]);
    out += label;
    out.append(label.size() < 4 ? 4 - label.size() : 0, ' ');
    out += " |";
    for (double v : surface.ee[i]) {
      const int idx = std::clamp(static_cast<int>(v * 10.0), 0, 9);
      out += kRamp[idx];
    }
    out += "|\n";
  }
  return out;
}

}  // namespace isoee::analysis
