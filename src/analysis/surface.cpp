#include "analysis/surface.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

namespace isoee::analysis {

namespace {

/// Evaluates every cell, row by row. Each cell is microseconds of pure
/// arithmetic on the fitted model, far less than an executor turn costs.
void fill_rows(EeSurface& s, const std::function<double(int, double)>& cell) {
  s.ee.clear();
  s.ee.reserve(s.ps.size());
  for (const int p : s.ps) {
    std::vector<double> row;
    row.reserve(s.cols.size());
    for (const double col : s.cols) row.push_back(cell(p, col));
    s.ee.push_back(std::move(row));
  }
}

}  // namespace

EeSurface ee_surface_pf(const model::MachineParams& machine,
                        const model::WorkloadModel& workload, double n,
                        std::span<const int> ps, std::span<const double> fs_ghz) {
  EeSurface s{.title = workload.name() + " EE(p, f), n = " + util::num(n, 0),
              .col_axis = "f (GHz)",
              .ps = {ps.begin(), ps.end()},
              .cols = {fs_ghz.begin(), fs_ghz.end()},
              .ee = {}};
  fill_rows(s, [&](int p, double f) { return model::ee_at(machine, workload, n, p, f); });
  return s;
}

EeSurface ee_surface_pn(const model::MachineParams& machine,
                        const model::WorkloadModel& workload, double f_ghz,
                        std::span<const int> ps, std::span<const double> ns) {
  EeSurface s{.title = workload.name() + " EE(p, n), f = " + util::num(f_ghz, 1) + " GHz",
              .col_axis = "n",
              .ps = {ps.begin(), ps.end()},
              .cols = {ns.begin(), ns.end()},
              .ee = {}};
  fill_rows(s,
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
