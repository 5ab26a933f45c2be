#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace isoee::util {

Summary summarize(std::span<const double> xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  double sum = 0.0;
  s.min = xs[0];
  s.max = xs[0];
  for (double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(xs.size());
  if (xs.size() >= 2) {
    double ss = 0.0;
    for (double x : xs) {
      const double d = x - s.mean;
      ss += d * d;
    }
    s.stdev = std::sqrt(ss / static_cast<double>(xs.size() - 1));
  }
  return s;
}

LinearFit fit_line(std::span<const double> xs, std::span<const double> ys) {
  assert(xs.size() == ys.size() && xs.size() >= 2);
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  LinearFit fit;
  const double denom = n * sxx - sx * sx;
  if (denom == 0.0) {  // all x identical: fall back to mean level
    fit.intercept = sy / n;
    fit.slope = 0.0;
    fit.r2 = 0.0;
    return fit;
  }
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;

  const double ybar = sy / n;
  double ss_res = 0, ss_tot = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.intercept + fit.slope * xs[i];
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - ybar) * (ys[i] - ybar);
  }
  fit.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

double ape(double actual, double predicted) {
  if (actual == 0.0) return 0.0;
  return 100.0 * std::abs(predicted - actual) / std::abs(actual);
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace isoee::util
