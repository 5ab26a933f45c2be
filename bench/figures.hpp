// The paper's figures and tables, and the ablations and extensions around
// them, as rows of one table. Each row renders its stdout tables and CSVs
// into a Context; the `figures` binary runs any set of rows in one process:
//
//   build/bench/figures                     # every row, in table order
//   build/bench/figures fig05_ft_ee_pf --seed 42 --jobs 0
//
// Row NAME is defined in bench/NAME.cpp. A row returns 0 on success and
// non-zero on a failed acceptance check; a thrown exception fails it too.
#pragma once

#include "bench/common.hpp"

namespace isoee::bench {

int fig02_efficiency(Context& ctx);
int fig03_validation_dori(Context& ctx);
int fig04_error_systemg(Context& ctx);
int fig05_ft_ee_pf(Context& ctx);
int fig06_ft_ee_pn(Context& ctx);
int fig07_ep_ee_pf(Context& ctx);
int fig08_cg_ee_pn(Context& ctx);
int fig09_cg_ee_pf(Context& ctx);
int fig10_power_trace(Context& ctx);
int ablation_overlap(Context& ctx);
int ablation_gamma(Context& ctx);
int ablation_alltoall(Context& ctx);
int ablation_topology(Context& ctx);
int ablation_comm_dvfs(Context& ctx);
int extension_hetero(Context& ctx);
int extension_io(Context& ctx);
int baseline_comparison(Context& ctx);
int iso_maintenance(Context& ctx);
int governor_cap(Context& ctx);
int params_tables(Context& ctx);
int root_cause(Context& ctx);

struct Row {
  const char* name;
  int (*run)(Context& ctx);
};

inline constexpr Row kRows[] = {
    {"fig02_efficiency", &fig02_efficiency},
    {"fig03_validation_dori", &fig03_validation_dori},
    {"fig04_error_systemg", &fig04_error_systemg},
    {"fig05_ft_ee_pf", &fig05_ft_ee_pf},
    {"fig06_ft_ee_pn", &fig06_ft_ee_pn},
    {"fig07_ep_ee_pf", &fig07_ep_ee_pf},
    {"fig08_cg_ee_pn", &fig08_cg_ee_pn},
    {"fig09_cg_ee_pf", &fig09_cg_ee_pf},
    {"fig10_power_trace", &fig10_power_trace},
    {"ablation_overlap", &ablation_overlap},
    {"ablation_gamma", &ablation_gamma},
    {"ablation_alltoall", &ablation_alltoall},
    {"ablation_topology", &ablation_topology},
    {"ablation_comm_dvfs", &ablation_comm_dvfs},
    {"extension_hetero", &extension_hetero},
    {"extension_io", &extension_io},
    {"baseline_comparison", &baseline_comparison},
    {"iso_maintenance", &iso_maintenance},
    {"governor_cap", &governor_cap},
    {"params_tables", &params_tables},
    {"root_cause", &root_cause},
};

/// Runs `rows` in order on `ctx`. A row that throws is reported and counts
/// as failed with status 1; the rest still run. Returns the first failed
/// row's status, or 0 when every row succeeded.
int run_rows(Context& ctx, const std::vector<const Row*>& rows);

}  // namespace isoee::bench
