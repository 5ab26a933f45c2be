// EE surface evaluation and rendering for the paper's 3-D plots (Figs 5-9):
// EE over (p, f) at fixed n, and EE over (p, n) at fixed f. Output is both a
// table (rows = one axis, columns = the other) and a coarse ASCII shade map.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "model/isocontour.hpp"
#include "util/table.hpp"

namespace isoee::analysis {

/// A grid of EE values: rows indexed by p, columns by the second axis
/// (frequency in GHz or problem size n).
struct EeSurface {
  std::string title;
  std::string col_axis;        // "f (GHz)" or "n"
  std::vector<int> ps;         // row axis
  std::vector<double> cols;    // column axis values
  std::vector<std::vector<double>> ee;  // [row][col]
};

/// EE over (p, f) at fixed n (Figs 5, 7, 9). Rows are independent analytic
/// evaluations of the fitted model, run as one batch on `exec` — the grid is
/// identical for every budget.
EeSurface ee_surface_pf(const model::MachineParams& machine,
                        const model::WorkloadModel& workload, double n,
                        std::span<const int> ps, std::span<const double> fs_ghz,
                        exec::Executor& exec);

/// EE over (p, n) at fixed f (Figs 6, 8).
EeSurface ee_surface_pn(const model::MachineParams& machine,
                        const model::WorkloadModel& workload, double f_ghz,
                        std::span<const int> ps, std::span<const double> ns,
                        exec::Executor& exec);

/// Renders the surface as an aligned table (EE with 4 decimals).
util::Table surface_table(const EeSurface& surface);

/// Renders a coarse shade map: '#' for EE ~ 1 down to '.' for EE ~ 0.
std::string surface_ascii(const EeSurface& surface);

}  // namespace isoee::analysis
