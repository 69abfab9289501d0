/**
 * @file
 * Statistics helpers shared by the experiment harness and benchmarks:
 * summary statistics, geometric means (used for cross-workload energy
 * efficiency ratios, as is conventional in architecture evaluations),
 * MAPE, and an online Welford accumulator.
 */

#ifndef AUTOSCALE_UTIL_STATS_H_
#define AUTOSCALE_UTIL_STATS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace autoscale {

/** Arithmetic mean; returns 0 for empty input. */
double mean(const std::vector<double> &values);

/** Sample standard deviation (n-1); returns 0 for fewer than 2 values. */
double stddev(const std::vector<double> &values);

/** Geometric mean; all values must be positive. */
double geomean(const std::vector<double> &values);

/**
 * Linear-interpolated percentile, @p p in [0, 100].
 * Input need not be sorted.
 */
double percentile(std::vector<double> values, double p);

/**
 * Nearest-rank percentile, @p p in [0, 100]; returns 0 for empty input.
 *
 * Contract: for n samples the result is the element at sorted index
 * clamp(ceil(p/100 * n), 1, n) - 1 — i.e. the smallest sample whose
 * cumulative frequency is >= p%. For even n, p50 selects the LOWER of
 * the two middle values (index n/2 - 1); for odd n it selects the exact
 * middle (index (n-1)/2). p0 is the minimum and p100 the maximum for
 * every n, including n == 1 and n == 2 — the clamp makes reading past
 * the last element impossible by construction. Selection uses
 * nth_element (expected O(n)) rather than a full sort.
 */
double percentileNearestRank(std::vector<double> values, double p);

/**
 * Nearest-rank percentiles @p lower <= @p upper of @p values, each equal
 * to what percentileNearestRank returns, from one buffer without a
 * copy: it selects @p lower with nth_element, then @p upper within the
 * part above it, so @p values is left reordered.
 */
std::pair<double, double>
percentilesNearestRank(std::vector<double> &values, double lower,
                       double upper);

/** Mean absolute percentage error between predictions and actuals (in %). */
double mape(const std::vector<double> &predicted,
            const std::vector<double> &actual);

/** Pearson correlation coefficient; 0 if either side is constant. */
double correlation(const std::vector<double> &a, const std::vector<double> &b);

/** Min/max/mean/stddev accumulator using Welford's algorithm. */
class OnlineStats {
  public:
    /** Fold one observation into the accumulator. */
    void add(double value);

    std::size_t count() const { return count_; }
    double mean() const { return mean_; }
    /** Sample variance (n-1); 0 with fewer than two observations. */
    double variance() const;
    double stddev() const;
    double min() const { return min_; }
    double max() const { return max_; }
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

} // namespace autoscale

#endif // AUTOSCALE_UTIL_STATS_H_
