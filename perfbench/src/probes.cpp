// Direct single-layer probes: npb::fft1d at FT's row lengths, sim::Engine::run
// with an empty body, and the per-call cost of each smpi collective at p=128
// measured as (run with K calls - empty run) / K.
#include <cmath>
#include <complex>
#include <cstdio>
#include <functional>
#include <vector>

#include "npb/fft.hpp"
#include "sim/machine.hpp"
#include "smpi/comm.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace isoee;

/// Median per-call microseconds of npb::fft1d on rows of length `n`.
double fft_us(std::uint64_t seed, std::size_t n) {
  util::Xoshiro256 rng(mix_seed(seed, 4000 + n));
  constexpr int kRows = 64, kBatches = 25, kPerBatch = 400;
  std::vector<std::complex<double>> data(n * kRows);
  for (auto& z : data) z = {rng.uniform() - 0.5, rng.uniform() - 0.5};
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kPerBatch; ++i) {
      // Forward then inverse on alternating calls keeps magnitudes bounded
      // (the inverse is unscaled, so rescale once per pair).
      std::span<std::complex<double>> row(data.data() + n * (i % kRows), n);
      npb::fft1d(row, (i & 1) != 0);
      if (i & 1) {
        for (auto& z : row) z /= static_cast<double>(n);
      }
    }
    per_call.push_back(seconds_since(t0) * 1e6 / kPerBatch);
  }
  if (!std::isfinite(std::abs(data[0]))) {
    record_failure("fft1d produced a non-finite value");
  }
  return median(per_call);
}

/// Median host milliseconds of Engine::run(p, body) over `reps` runs.
double run_ms(int p, int reps, const std::function<void(sim::RankCtx&)>& body) {
  sim::Engine engine(sim::system_g());
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    (void)engine.run(p, body);
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

}  // namespace

void layer_probes(std::uint64_t seed, Metrics& out) {
  out["npb.fft1d_us.32"] = {fft_us(seed, 32), "us"};
  out["npb.fft1d_us.64"] = {fft_us(seed, 64), "us"};

  const auto empty = [](sim::RankCtx&) {};
  for (const int p : {32, 64, 128}) {
    (void)run_ms(p, 2, empty);  // first touch of the stack pool at this width
    out["sim.empty_run_ms." + std::to_string(p)] = {run_ms(p, 15, empty), "ms"};
  }

  constexpr int kP = 128;
  const double empty_ms = run_ms(kP, 9, empty);
  struct Probe {
    const char* name;
    int calls;
    std::function<void(smpi::Comm&, std::vector<double>&, std::vector<double>&)> call;
  };
  const Probe probes[] = {
      {"smpi.allreduce_us", 8,
       [](smpi::Comm& c, std::vector<double>& a, std::vector<double>& b) {
         c.allreduce_sum(std::span<const double>(a.data(), 1),
                         std::span<double>(b.data(), 1));
       }},
      {"smpi.allgather_us", 4,
       [](smpi::Comm& c, std::vector<double>& a, std::vector<double>& b) {
         c.allgather(std::span<const double>(a.data(), 1), std::span<double>(b));
       }},
      {"smpi.alltoall_us", 2,
       [](smpi::Comm& c, std::vector<double>& a, std::vector<double>& b) {
         c.alltoall(std::span<const double>(a), std::span<double>(b), 1);
       }},
      {"smpi.bcast_us", 8,
       [](smpi::Comm& c, std::vector<double>& a, std::vector<double>&) {
         c.bcast(std::span<double>(a.data(), 1), 0);
       }},
  };
  for (const Probe& probe : probes) {
    const double ms = run_ms(kP, 3, [&](sim::RankCtx& ctx) {
      smpi::Comm comm(ctx);
      std::vector<double> a(kP, 1.0), b(kP, 0.0);
      for (int k = 0; k < probe.calls; ++k) probe.call(comm, a, b);
    });
    out[probe.name] = {(ms - empty_ms) * 1e3 / probe.calls, "us"};
  }
}

}  // namespace perfbench
