// Small statistics toolkit: summaries, linear regression, error metrics.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace isoee::util {

/// Summary statistics over a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stdev = 0.0;  // sample standard deviation (n-1 denominator)
  double min = 0.0;
  double max = 0.0;
};

/// Computes count/mean/stdev/min/max of `xs`. Empty input yields zeros.
Summary summarize(std::span<const double> xs);

/// Result of a simple linear fit y = intercept + slope * x.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
  double r2 = 0.0;  // coefficient of determination
};

/// Ordinary least squares fit of y on x. Requires xs.size() == ys.size() >= 2.
LinearFit fit_line(std::span<const double> xs, std::span<const double> ys);

/// Absolute percentage error of a single prediction (in percent).
double ape(double actual, double predicted);

/// p-th percentile (0..100) via linear interpolation; input need not be sorted.
double percentile(std::span<const double> xs, double p);

/// Arithmetic mean; 0 for empty input.
double mean(std::span<const double> xs);

}  // namespace isoee::util
