#include "benchtools/mpptest.hpp"

#include <cstddef>
#include <mutex>
#include <span>
#include <vector>

#include "util/stats.hpp"

namespace isoee::tools {

NetworkFit mpptest(const sim::MachineSpec& machine, const MpptestOptions& options) {
  NetworkFit fit;
  for (std::uint64_t bytes = options.min_bytes; bytes <= options.max_bytes; bytes *= 4) {
    sim::Engine engine(machine);
    double round_trip_total = 0.0;
    std::mutex mu;
    engine.run(2, [&](sim::RankCtx& ctx) {
      std::vector<std::byte> buf(bytes);
      const double t0 = ctx.now();
      for (int rep = 0; rep < options.repetitions; ++rep) {
        if (ctx.rank() == 0) {
          ctx.send_bytes(1, 1, buf);
          ctx.recv(1, 2, std::span<std::byte>(buf));
        } else {
          ctx.recv(0, 1, std::span<std::byte>(buf));
          ctx.send_bytes(0, 2, buf);
        }
      }
      if (ctx.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        round_trip_total = ctx.now() - t0;
      }
    });
    const double one_way =
        round_trip_total / (2.0 * static_cast<double>(options.repetitions));
    fit.points.push_back(PingPongPoint{bytes, one_way});
  }

  std::vector<double> xs, ys;
  xs.reserve(fit.points.size());
  ys.reserve(fit.points.size());
  for (const auto& pt : fit.points) {
    xs.push_back(static_cast<double>(pt.bytes));
    ys.push_back(pt.one_way_s);
  }
  const util::LinearFit line = util::fit_line(xs, ys);
  fit.t_s = line.intercept;
  fit.t_w = line.slope;
  fit.r2 = line.r2;
  return fit;
}

}  // namespace isoee::tools
