#include "analysis/workload_fit.hpp"

#include <cmath>

#include "analysis/leastsq.hpp"
#include "model/comm.hpp"

namespace isoee::analysis {

namespace {

/// Mean alpha over parallel samples (falls back to all samples).
double mean_alpha(std::span<const CounterSample> samples) {
  double sum = 0.0;
  int count = 0;
  for (const auto& s : samples) {
    if (s.p > 1) {
      sum += s.alpha;
      ++count;
    }
  }
  if (count == 0) {
    for (const auto& s : samples) {
      sum += s.alpha;
      ++count;
    }
  }
  return count > 0 ? sum / count : 1.0;
}

std::vector<CounterSample> sequential(std::span<const CounterSample> samples) {
  std::vector<CounterSample> out;
  for (const auto& s : samples) {
    if (s.p == 1) out.push_back(s);
  }
  return out;
}

std::vector<CounterSample> parallel(std::span<const CounterSample> samples) {
  std::vector<CounterSample> out;
  for (const auto& s : samples) {
    if (s.p > 1) out.push_back(s);
  }
  return out;
}

/// The sequential fit W_c = a*n, W_m = b*n over the p = 1 samples, with W_m
/// in effective off-chip accesses. Leaves `a` and `b` as they are without any.
void fit_sequential(std::span<const CounterSample> seq, double t_m, double& a, double& b) {
  std::vector<double> ns, instr, mem;
  for (const auto& s : seq) {
    ns.push_back(s.n);
    instr.push_back(s.instructions);
    mem.push_back(s.mem_time / t_m);
  }
  if (!seq.empty()) {
    a = ols1(ns, instr);
    b = ols1(ns, mem);
  }
}

}  // namespace

CounterSample make_sample(const sim::RunResult& run, double n, int p) {
  CounterSample s;
  s.n = n;
  s.p = p;
  s.instructions = static_cast<double>(run.counters.instructions);
  s.mem_accesses = static_cast<double>(run.counters.mem_accesses);
  s.mem_time = run.time.memory_issued;
  s.io_time = run.time.io;
  s.makespan = run.makespan;
  s.messages = static_cast<double>(run.counters.messages_sent);
  s.bytes = static_cast<double>(run.counters.bytes_sent);
  s.alpha = run.mean_alpha();
  return s;
}

model::EpWorkload fit_ep_workload(std::span<const CounterSample> samples, double t_m) {
  model::EpWorkload w;
  const auto seq = sequential(samples);
  const auto par = parallel(samples);

  fit_sequential(seq, t_m, w.wc_per_trial, w.wm_per_trial);

  // Overheads vs p*ceil_log2(p) (allreduce combine work).
  std::vector<double> basis, dwoc;
  for (const auto& s : par) {
    basis.push_back(static_cast<double>(s.p) * model::ceil_log2(s.p));
    dwoc.push_back(s.instructions - w.wc_per_trial * s.n);
  }
  if (!par.empty()) w.dwoc_plogp = std::max(0.0, ols1(basis, dwoc));

  w.alpha = mean_alpha(samples);
  return w;
}

model::FtWorkload fit_ft_workload(std::span<const CounterSample> samples, int iters,
                                  double t_m) {
  model::FtWorkload w;
  w.iters = iters;
  const auto seq = sequential(samples);
  const auto par = parallel(samples);

  // Sequential: W_c = a*n*log2(n) + b*n. The two-column fit needs >= 3
  // sizes — with two, the near-collinear columns (log2 n varies slowly)
  // produce wildly oscillating coefficients.
  std::vector<double> col_nlogn, col_n, instr, mem;
  for (const auto& s : seq) {
    col_nlogn.push_back(s.n * std::log2(s.n));
    col_n.push_back(s.n);
    instr.push_back(s.instructions);
    mem.push_back(s.mem_time / t_m);
  }
  if (seq.size() >= 3) {
    const std::vector<std::vector<double>> cols = {col_nlogn, col_n};
    const OlsResult fit = ols(cols, instr);
    if (fit.ok) {
      w.wc_nlogn = fit.coeffs[0];
      w.wc_n = fit.coeffs[1];
    }
    w.wm_n = ols1(col_n, mem);
  } else if (!seq.empty()) {
    // One or two sizes: stable one-term fits.
    w.wc_nlogn = ols1(col_nlogn, instr);
    w.wc_n = 0.0;
    w.wm_n = ols1(col_n, mem);
  }

  // Overheads vs {p*log2 p, p}.
  if (par.size() >= 2) {
    std::vector<double> col_plogp, col_p, dwoc, dwom;
    for (const auto& s : par) {
      col_plogp.push_back(static_cast<double>(s.p) * model::ceil_log2(s.p));
      col_p.push_back(static_cast<double>(s.p));
      dwoc.push_back(s.instructions - (w.wc_nlogn * s.n * std::log2(s.n) + w.wc_n * s.n));
      dwom.push_back(s.mem_time / t_m - w.wm_n * s.n);
    }
    const std::vector<std::vector<double>> cols = {col_plogp, col_p};
    if (const OlsResult fit = ols(cols, dwoc); fit.ok) {
      w.dwoc_plogp = fit.coeffs[0];
      w.dwoc_p = fit.coeffs[1];
    }
    if (const OlsResult fit = ols(cols, dwom); fit.ok) {
      w.dwom_plogp = fit.coeffs[0];
      w.dwom_p = fit.coeffs[1];
    }
  }

  w.alpha = mean_alpha(samples);
  return w;
}

model::CgWorkload fit_cg_workload(std::span<const CounterSample> samples, int outer,
                                  int inner, double nzr, double t_m) {
  model::CgWorkload w;
  w.outer = outer;
  w.inner = inner;
  w.nzr = nzr;
  const auto seq = sequential(samples);
  const auto par = parallel(samples);

  fit_sequential(seq, t_m, w.wc_n, w.wm_n);

  // Overheads vs n*(p-1): the gathered-vector assembly terms.
  std::vector<double> basis, dwoc, dwom;
  for (const auto& s : par) {
    basis.push_back(s.n * (s.p - 1));
    dwoc.push_back(s.instructions - w.wc_n * s.n);
    dwom.push_back(s.mem_time / t_m - w.wm_n * s.n);
  }
  if (!par.empty()) {
    w.dwoc_npm1 = std::max(0.0, ols1(basis, dwoc));
    // The memory overhead may legitimately be *negative*: per-rank working
    // sets shrink with p and more of the raw accesses become cache hits —
    // the paper's own CG vector carries a negative memory-overhead term.
    w.dwom_npm1 = ols1(basis, dwom);
  }

  w.alpha = mean_alpha(samples);
  return w;
}

model::IsWorkload fit_is_workload(std::span<const CounterSample> samples, double t_m) {
  model::IsWorkload w;
  const auto seq = sequential(samples);
  const auto par = parallel(samples);

  fit_sequential(seq, t_m, w.wc_n, w.wm_n);

  if (par.size() >= 2) {
    std::vector<double> col_plogp, col_p, dwoc, dwom;
    for (const auto& s : par) {
      col_plogp.push_back(static_cast<double>(s.p) * model::ceil_log2(s.p));
      col_p.push_back(static_cast<double>(s.p));
      dwoc.push_back(s.instructions - w.wc_n * s.n);
      dwom.push_back(s.mem_time / t_m - w.wm_n * s.n);
    }
    const std::vector<std::vector<double>> cols = {col_plogp, col_p};
    if (const OlsResult fit = ols(cols, dwoc); fit.ok) {
      w.dwoc_plogp = fit.coeffs[0];
      w.dwoc_p = fit.coeffs[1];
    }
    if (const OlsResult fit = ols(cols, dwom); fit.ok) {
      w.dwom_plogp = fit.coeffs[0];
      w.dwom_p = fit.coeffs[1];
    }
  }

  w.alpha = mean_alpha(samples);
  return w;
}

model::MgWorkload fit_mg_workload(std::span<const CounterSample> samples, int cycles,
                                  double t_m) {
  model::MgWorkload w;
  w.cycles = cycles;
  const auto seq = sequential(samples);
  const auto par = parallel(samples);

  fit_sequential(seq, t_m, w.wc_n, w.wm_n);

  std::vector<double> col_p, col_n23p, dwoc, dwom, msgs, bytes;
  for (const auto& s : par) {
    col_p.push_back(static_cast<double>(s.p));
    col_n23p.push_back(std::pow(s.n, 2.0 / 3.0) * s.p);
    dwoc.push_back(s.instructions - w.wc_n * s.n);
    dwom.push_back(s.mem_time / t_m - w.wm_n * s.n);
    msgs.push_back(s.messages);
    bytes.push_back(s.bytes);
  }
  if (!par.empty()) {
    w.dwoc_p = ols1(col_p, dwoc);
    w.dwom_p = ols1(col_p, dwom);
    w.msgs_p = std::max(0.0, ols1(col_p, msgs));
    w.bytes_n23p = std::max(0.0, ols1(col_n23p, bytes));
  }

  w.alpha = mean_alpha(samples);
  return w;
}

model::CkptWorkload fit_ckpt_workload(std::span<const CounterSample> samples,
                                      int iterations, int ckpt_every, double t_m) {
  model::CkptWorkload w;
  w.iterations = iterations;
  w.ckpt_every = ckpt_every;
  const auto seq = sequential(samples);

  fit_sequential(seq, t_m, w.wc_n, w.wm_n);

  // I/O time over all samples: T_io = io_p * p + io_n * n.
  std::vector<double> col_p, col_n, io;
  for (const auto& s : samples) {
    col_p.push_back(static_cast<double>(s.p));
    col_n.push_back(s.n);
    io.push_back(s.io_time);
  }
  if (samples.size() >= 2) {
    const std::vector<std::vector<double>> cols = {col_p, col_n};
    if (const OlsResult fit = ols(cols, io); fit.ok) {
      w.io_p = std::max(0.0, fit.coeffs[0]);
      w.io_n = std::max(0.0, fit.coeffs[1]);
    }
  }

  w.alpha = mean_alpha(samples);
  return w;
}

model::SweepWorkload fit_sweep_workload(std::span<const CounterSample> samples, int sweeps,
                                        int tile_w, double t_m) {
  model::SweepWorkload w;
  w.sweeps = sweeps;
  w.tile_w = tile_w;
  const auto seq = sequential(samples);
  const auto par = parallel(samples);

  fit_sequential(seq, t_m, w.wc_n, w.wm_n);
  std::vector<double> ns, wall;
  for (const auto& s : seq) {
    ns.push_back(s.n);
    wall.push_back(s.makespan);
  }
  if (!seq.empty()) w.sec_per_cell = ols1(ns, wall);  // one rank's issued seconds per cell

  std::vector<double> col_pm1, col_pm1n, msgs, bytes;
  for (const auto& s : par) {
    const double rows = std::sqrt(s.n);
    col_pm1.push_back(static_cast<double>(s.p - 1));
    col_pm1n.push_back(static_cast<double>(s.p - 1) * rows);
    msgs.push_back(s.messages);
    bytes.push_back(s.bytes);
  }
  if (!par.empty()) {
    w.msgs_pm1 = std::max(0.0, ols1(col_pm1, msgs));
    w.bytes_pm1n = std::max(0.0, ols1(col_pm1n, bytes));
  }

  w.alpha = mean_alpha(samples);
  return w;
}

}  // namespace isoee::analysis