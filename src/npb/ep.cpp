#include "npb/ep.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "npb/costs.hpp"
#include "smpi/comm.hpp"
#include "util/rng.hpp"

namespace isoee::npb {

EpResult ep_rank(sim::RankCtx& ctx, const EpConfig& config, powerpack::PhaseLog* phases) {
  smpi::Comm comm(ctx, config.collectives);
  const int p = ctx.size();
  const int r = ctx.rank();

  // Slice the one global stream: rank r handles trials [lo, hi), two uniform
  // draws per trial.
  const std::uint64_t lo = config.trials * static_cast<std::uint64_t>(r) /
                           static_cast<std::uint64_t>(p);
  const std::uint64_t hi = config.trials * static_cast<std::uint64_t>(r + 1) /
                           static_cast<std::uint64_t>(p);
  util::NpbRandom rng(config.seed);
  rng.skip(2 * lo);

  EpResult local;
  std::uint64_t accepted = 0;
  {
    powerpack::OptionalPhase phase(phases, ctx, "ep.generate");

    // Charge the simulator in batches so one EP run does not generate
    // millions of trace segments.
    constexpr std::uint64_t kBatch = 1 << 16;
    std::uint64_t in_batch = 0, accepted_in_batch = 0;
    auto flush = [&] {
      if (in_batch == 0) return;
      const std::uint64_t instr = costs::kEpInstrPerTrial * in_batch +
                                  costs::kEpInstrPerAccept * accepted_in_batch;
      ctx.compute_mem(instr, in_batch / costs::kEpTrialsPerMemAccess,
                      /*working_set_bytes=*/64 * 1024);
      in_batch = 0;
      accepted_in_batch = 0;
    };

    // Draw each trial's two deviates through two interleaved integer chains
    // and consume them at once, so the acceptance test's log and sqrt
    // overlap the chains' multiply latency. A trial costs one multiply-and-
    // mask latency instead of two serial next() steps.
    util::NpbPairStream stream(rng);
    for (std::uint64_t t = lo; t < hi; ++t) {
      const auto [u, v] = stream.next();
      const double x = 2.0 * u - 1.0;
      const double y = 2.0 * v - 1.0;
      const double s = x * x + y * y;
      ++in_batch;
      if (s <= 1.0 && s != 0.0) {
        const double scale = std::sqrt(-2.0 * std::log(s) / s);
        const double gx = x * scale;
        const double gy = y * scale;
        local.sx += gx;
        local.sy += gy;
        const auto annulus = static_cast<std::size_t>(std::max(std::fabs(gx), std::fabs(gy)));
        if (annulus < local.counts.size()) ++local.counts[annulus];
        ++accepted;
        ++accepted_in_batch;
      }
      if (in_batch == kBatch) flush();
    }
    flush();
  }
  local.pairs = accepted;

  // Allreduce the 13 statistics: sx, sy, pair count, 10 annulus counts.
  {
    powerpack::OptionalPhase phase(phases, ctx, "ep.allreduce");
    double stats[13];
    stats[0] = local.sx;
    stats[1] = local.sy;
    stats[2] = static_cast<double>(local.pairs);
    for (std::size_t i = 0; i < 10; ++i) stats[3 + i] = static_cast<double>(local.counts[i]);
    double reduced[13];
    comm.allreduce_sum(std::span<const double>(stats, 13), std::span<double>(reduced, 13));
    local.sx = reduced[0];
    local.sy = reduced[1];
    local.pairs = static_cast<std::uint64_t>(reduced[2] + 0.5);
    for (std::size_t i = 0; i < 10; ++i) {
      local.counts[i] = static_cast<std::uint64_t>(reduced[3 + i] + 0.5);
    }
  }
  return local;
}

}  // namespace isoee::npb
