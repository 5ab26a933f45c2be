#include "powerpack/profiler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace isoee::powerpack {

namespace {

/// Component power drawn by one rank while a segment's activity is in effect
/// (paper Eq 9/12 on one timeline span). Shared by the offline Profiler and
/// the online StreamingSampler so both report identical watts.
PowerSample segment_power_impl(const sim::PowerSpec& pw, double base_ghz,
                               const sim::Segment& seg) {
  PowerSample s;
  s.cpu_w = pw.cpu_idle_w;
  s.mem_w = pw.mem_idle_w;
  s.io_w = pw.io_idle_w;
  s.other_w = pw.other_w;
  switch (seg.activity) {
    case sim::Activity::kCompute:
      s.cpu_w += pw.cpu_delta_at(seg.ghz, base_ghz);
      break;
    case sim::Activity::kMemory:
      s.mem_w += pw.mem_delta_w;
      break;
    case sim::Activity::kNetwork:
      s.io_w += pw.io_delta_w;
      s.cpu_w += pw.net_poll_cpu_factor * pw.cpu_delta_at(seg.ghz, base_ghz);
      break;
    case sim::Activity::kIo:
      s.io_w += pw.io_delta_w;
      break;
    case sim::Activity::kIdle:
      break;
  }
  return s;
}

PowerSample idle_power(const sim::PowerSpec& pw) {
  PowerSample s;
  s.cpu_w = pw.cpu_idle_w;
  s.mem_w = pw.mem_idle_w;
  s.io_w = pw.io_idle_w;
  s.other_w = pw.other_w;
  return s;
}

}  // namespace

void StreamingSampler::feed(sim::RankCtx& ctx, const sim::Segment& seg) const {
  StreamSample s;
  s.rank = ctx.rank();
  s.t0 = seg.start;
  s.duration = seg.duration;
  s.power = segment_power_impl(spec_.power, spec_.cpu.base_ghz, seg);
  s.power.t = seg.start;
  for (const auto& cb : subscribers_) cb(ctx, s);
}

std::function<void(sim::RankCtx&, const sim::Segment&)> StreamingSampler::engine_hook() {
  return [this](sim::RankCtx& ctx, const sim::Segment& seg) { feed(ctx, seg); };
}

PowerSample Profiler::power_at(std::span<const sim::Segment> trace, double t) const {
  // Segments are contiguous and sorted by start time; binary-search the one
  // covering t.
  PowerSample s;
  if (trace.empty() || t < trace.front().start ||
      t >= trace.back().start + trace.back().duration) {
    s = idle_power(spec_.power);
    s.t = t;
    return s;
  }
  auto it = std::upper_bound(trace.begin(), trace.end(), t,
                             [](double value, const sim::Segment& seg) {
                               return value < seg.start;
                             });
  // `it` is the first segment starting after t; the covering one precedes it.
  const sim::Segment& seg = *(it - 1);
  if (t < seg.start + seg.duration) {
    s = segment_power_impl(spec_.power, spec_.cpu.base_ghz, seg);
  } else {
    // Engine-recorded traces are contiguous by construction, so a sample
    // falling in a hole means the caller handed us a doctored or truncated
    // trace. Loudly assert in debug builds; in release builds warn once and
    // attribute idle power to the gap (the documented fallback).
    assert(!"Profiler::power_at: gap between trace segments");
    static bool warned = false;
    if (!warned) {
      warned = true;
      ISOEE_WARN(
          "power_at: t=%.9f falls in a gap between trace segments; "
          "attributing idle power (trace is not contiguous)",
          t);
    }
    s = idle_power(spec_.power);
  }
  s.t = t;
  return s;
}

std::vector<PowerSample> Profiler::sample_job(
    const std::vector<std::vector<sim::Segment>>& traces, const SampleOptions& opts) const {
  double t_end = 0.0;
  for (const auto& trace : traces) {
    if (!trace.empty()) t_end = std::max(t_end, trace.back().start + trace.back().duration);
  }
  util::Xoshiro256 rng(opts.noise_seed);
  std::vector<PowerSample> out;
  const auto count = static_cast<std::size_t>(std::floor(t_end / opts.interval_s)) + 1;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double t = static_cast<double>(i) * opts.interval_s;
    PowerSample sum;
    sum.t = t;
    for (const auto& trace : traces) {
      const PowerSample s = power_at(trace, t);
      sum.cpu_w += s.cpu_w;
      sum.mem_w += s.mem_w;
      sum.io_w += s.io_w;
      sum.other_w += s.other_w;
    }
    if (opts.sensor_noise && spec_.noise.enabled) {
      const double sigma = spec_.noise.sensor_sigma;
      sum.cpu_w *= rng.jitter(sigma);
      sum.mem_w *= rng.jitter(sigma);
      sum.io_w *= rng.jitter(sigma);
      sum.other_w *= rng.jitter(sigma);
    }
    out.push_back(sum);
  }
  return out;
}

double Profiler::integrate_j(std::span<const PowerSample> samples, double interval_s) {
  double e = 0.0;
  for (const auto& s : samples) e += s.total_w() * interval_s;
  return e;
}

double Profiler::energy_between_j(std::span<const sim::Segment> trace, double t0,
                                  double t1) const {
  // Rank timelines are time-sorted with non-decreasing end times (the engine
  // records them contiguously), so the segments overlapping [t0, t1) form one
  // contiguous range: binary-search its start and stop at the first segment
  // past t1. Callers like trace_stats invoke this once per span, which made
  // the full-timeline scan quadratic on large traces. Skipped segments would
  // have contributed exactly 0.0, so the sum is bit-identical to the scan.
  const auto first = std::partition_point(
      trace.begin(), trace.end(),
      [t0](const sim::Segment& s) { return s.start + s.duration <= t0; });
  double e = 0.0;
  for (auto it = first; it != trace.end() && it->start < t1; ++it) {
    const double lo = std::max(t0, it->start);
    const double hi = std::min(t1, it->start + it->duration);
    if (hi <= lo) continue;
    const PowerSample p = segment_power_impl(spec_.power, spec_.cpu.base_ghz, *it);
    e += p.total_w() * (hi - lo);
  }
  return e;
}

bool write_power_csv(std::span<const PowerSample> samples, const std::string& path) {
  util::Table table({"t_s", "cpu_W", "mem_W", "io_W", "other_W", "total_W"});
  for (const auto& s : samples) {
    table.add_row({util::num(s.t, 6), util::num(s.cpu_w, 3), util::num(s.mem_w, 3),
                   util::num(s.io_w, 3), util::num(s.other_w, 3),
                   util::num(s.total_w(), 3)});
  }
  return table.write_csv(path);
}

bool write_segments_csv(const std::vector<std::vector<sim::Segment>>& traces,
                        const std::string& path) {
  util::Table table({"rank", "start_s", "duration_s", "activity", "ghz"});
  for (std::size_t r = 0; r < traces.size(); ++r) {
    for (const auto& seg : traces[r]) {
      table.add_row({util::num(static_cast<long long>(r)), util::num(seg.start, 9),
                     util::num(seg.duration, 9), sim::activity_name(seg.activity),
                     util::num(seg.ghz, 2)});
    }
  }
  return table.write_csv(path);
}

}  // namespace isoee::powerpack
