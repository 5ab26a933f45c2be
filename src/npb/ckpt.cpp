#include "npb/ckpt.hpp"

#include <cmath>
#include <vector>

#include "npb/costs.hpp"
#include "util/rng.hpp"

namespace isoee::npb {

CkptResult ckpt_rank(sim::RankCtx& ctx, const CkptConfig& config,
                     powerpack::PhaseLog* phases) {
  smpi::Comm comm(ctx, config.collectives);
  const int p = ctx.size();
  const int r = ctx.rank();

  const std::uint64_t lo = config.elements * static_cast<std::uint64_t>(r) /
                           static_cast<std::uint64_t>(p);
  const std::uint64_t hi = config.elements * static_cast<std::uint64_t>(r + 1) /
                           static_cast<std::uint64_t>(p);
  std::vector<double> state(static_cast<std::size_t>(hi - lo));
  {
    powerpack::OptionalPhase phase(phases, ctx, "ckpt.init");
    util::NpbRandom rng(config.seed);
    rng.skip(lo);
    rng.fill(state);
    ctx.compute_mem(10 * state.size(), state.size() / 8);
  }

  CkptResult result;
  for (int it = 1; it <= config.iterations; ++it) {
    {
      // Real update pass: a contraction toward a fixed point, so the
      // checksum is well-conditioned and p-invariant (elementwise op).
      powerpack::OptionalPhase phase(phases, ctx, "ckpt.update");
      for (auto& x : state) x = 0.5 * x + 0.25 * x * x + 0.1;
      ctx.compute_mem(6 * state.size(), state.size() / 8);
    }
    if (it % config.ckpt_every == 0) {
      powerpack::OptionalPhase phase(phases, ctx, "ckpt.write");
      const std::uint64_t bytes = state.size() * sizeof(double);
      ctx.disk_write(bytes);
      result.bytes_written += bytes;
      ++result.checkpoints;
    }
  }

  {
    powerpack::OptionalPhase phase(phases, ctx, "ckpt.checksum");
    double local = 0.0;
    for (double x : state) local += x;
    ctx.compute_mem(2 * state.size(), state.size() / 8);
    result.checksum = comm.allreduce_sum(local);
  }
  return result;
}

}  // namespace isoee::npb
