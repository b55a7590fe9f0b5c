#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace torsim::stats {

double sum(std::span<const double> values) {
  double total = 0.0;
  double compensation = 0.0;
  for (double v : values) {
    const double y = v - compensation;
    const double t = total + y;
    compensation = (t - total) - y;
    total = t;
  }
  return total;
}

double mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return sum(values) / static_cast<double>(values.size());
}

double variance(std::span<const double> values) {
  if (values.empty()) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return acc / static_cast<double>(values.size());
}

double stddev(std::span<const double> values) {
  return std::sqrt(variance(values));
}

double sample_variance(std::span<const double> values) {
  if (values.size() < 2) return 0.0;
  const double m = mean(values);
  double acc = 0.0;
  for (double v : values) acc += (v - m) * (v - m);
  return acc / static_cast<double>(values.size() - 1);
}

double percentile(std::span<const double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile: empty input");
  if (p < 0.0 || p > 100.0)
    throw std::invalid_argument("percentile: p outside [0,100]");
  std::vector<double> work(values.begin(), values.end());
  if (work.size() == 1) return work[0];
  const double rank = p / 100.0 * static_cast<double>(work.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, work.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // Only the order statistics at lo and hi matter: nth_element puts the
  // lo-th smallest in place with everything after it no smaller, so the
  // hi-th (= lo+1-th) smallest is the minimum of that upper part. Same
  // two values as a full sort, same formula, so the same bits.
  const auto lo_it = work.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(work.begin(), lo_it, work.end());
  const double at_lo = *lo_it;
  const double at_hi =
      hi == lo ? at_lo : *std::min_element(lo_it + 1, work.end());
  return at_lo + frac * (at_hi - at_lo);
}

double median(std::span<const double> values) { return percentile(values, 50.0); }

double min(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("min: empty input");
  return *std::min_element(values.begin(), values.end());
}

double max(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("max: empty input");
  return *std::max_element(values.begin(), values.end());
}

double chi_square_distance(std::span<const double> a,
                           std::span<const double> b) {
  if (a.size() != b.size())
    throw std::invalid_argument("chi_square_distance: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double denom = a[i] + b[i];
    if (denom > 0.0) acc += (a[i] - b[i]) * (a[i] - b[i]) / denom;
  }
  return 0.5 * acc;
}

std::vector<double> normalized(std::span<const double> values) {
  std::vector<double> out(values.begin(), values.end());
  const double total = sum(values);
  if (total > 0.0)
    for (double& v : out) v /= total;
  return out;
}

}  // namespace torsim::stats
