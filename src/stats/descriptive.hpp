// Descriptive statistics used by the measurement pipelines and the
// Sec. VII tracking-detection rules.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace torsim::stats {

/// Kahan-compensated sum.
double sum(std::span<const double> values);

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> values);

/// Population variance (divides by n); 0 for fewer than 1 element.
double variance(std::span<const double> values);

/// Population standard deviation.
double stddev(std::span<const double> values);

/// Sample variance (divides by n-1); 0 for fewer than 2 elements.
double sample_variance(std::span<const double> values);

/// p-th percentile (0..100) with linear interpolation; values need not be
/// sorted (a partially ordered copy is made; no full sort). Throws on
/// empty input or p outside [0, 100].
double percentile(std::span<const double> values, double p);

/// Median.
double median(std::span<const double> values);

/// Min/max; throw on empty input.
double min(std::span<const double> values);
double max(std::span<const double> values);

/// Chi-square distance between two non-negative distributions of equal
/// size: sum((a-b)^2 / (a+b)) over bins where a+b > 0. Used by tests to
/// compare measured distributions against the paper's published ones.
double chi_square_distance(std::span<const double> a,
                           std::span<const double> b);

/// Normalizes to sum 1 (no-op on an all-zero vector).
std::vector<double> normalized(std::span<const double> values);

}  // namespace torsim::stats
