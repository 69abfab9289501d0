/** @file Unit tests for statistics helpers (util/stats.h). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "util/stats.h"

namespace autoscale {
namespace {

TEST(Stats, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, StddevSample)
{
    EXPECT_DOUBLE_EQ(stddev({5.0}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}),
                std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, GeomeanKnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-12);
}

TEST(Stats, PercentileInterpolation)
{
    std::vector<double> values{4.0, 1.0, 3.0, 2.0}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentile(values, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(values, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(values, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile({42.0}, 75.0), 42.0);
}

TEST(Stats, PercentileNearestRankEmptyAndSingle)
{
    EXPECT_DOUBLE_EQ(percentileNearestRank({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank({42.0}, 0.0), 42.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank({42.0}, 50.0), 42.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank({42.0}, 100.0), 42.0);
}

TEST(Stats, PercentileNearestRankTwoElements)
{
    // Even length: nearest-rank p50 is the LOWER middle (index
    // ceil(0.5 * 2) - 1 = 0), with no interpolation.
    const std::vector<double> values{9.0, 3.0}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 0.0), 3.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 50.1), 9.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 100.0), 9.0);
}

TEST(Stats, PercentileNearestRankOddLength)
{
    const std::vector<double> values{5.0, 1.0, 4.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 0.0), 1.0);
    // Odd length: p50 is the exact middle element (index (n-1)/2).
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 50.0), 3.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 99.0), 5.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 100.0), 5.0);
}

TEST(Stats, PercentilePairMatchesSeparateNearestRankCalls)
{
    // One buffer, two selections: each result must be exactly what a
    // separate percentileNearestRank call returns, ties included.
    Rng rng(61);
    const std::pair<double, double> ranks[] = {
        {50.0, 99.0}, {0.0, 100.0}, {50.0, 50.0}, {1.0, 2.0},
        {99.0, 99.9}, {0.0, 0.0},   {100.0, 100.0}};
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{10}, std::size_t{101}, std::size_t{1000}}) {
        for (int trial = 0; trial < 8; ++trial) {
            std::vector<double> values(n);
            for (double &value : values) {
                // Few distinct values, so most samples tie.
                value = static_cast<double>(rng.uniformInt(7)) * 0.5;
            }
            for (const auto &[lower, upper] : ranks) {
                std::vector<double> buffer = values;
                const auto [low, high] =
                    percentilesNearestRank(buffer, lower, upper);
                EXPECT_EQ(low, percentileNearestRank(values, lower))
                    << "n " << n << " p" << lower;
                EXPECT_EQ(high, percentileNearestRank(values, upper))
                    << "n " << n << " p" << upper;
            }
        }
    }
}

TEST(Stats, PercentileNearestRankEvenLength)
{
    const std::vector<double> values{40.0, 10.0, 30.0, 20.0};
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 25.0), 10.0);
    // Even length: p50 -> lower middle (index n/2 - 1), by contract.
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 50.0), 20.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 75.0), 30.0);
    EXPECT_DOUBLE_EQ(percentileNearestRank(values, 100.0), 40.0);
}

TEST(Stats, PercentileNearestRankMatchesSortedIndex)
{
    // Reference implementation: fully sort, index by the nearest-rank
    // formula. nth_element must agree at every percentile.
    std::vector<double> values;
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 101; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push_back(static_cast<double>(x % 10000) / 7.0);
    }
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    for (double p = 0.0; p <= 100.0; p += 0.5) {
        const double rank =
            std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
        const std::size_t index = std::min(
            sorted.size() - 1,
            static_cast<std::size_t>(std::max(0.0, rank - 1.0)));
        EXPECT_DOUBLE_EQ(percentileNearestRank(values, p), sorted[index])
            << "p=" << p;
    }
}

TEST(Stats, MapeKnownError)
{
    EXPECT_DOUBLE_EQ(mape({}, {}), 0.0);
    // 10% and 20% errors -> 15% MAPE.
    EXPECT_NEAR(mape({110.0, 80.0}, {100.0, 100.0}), 15.0, 1e-12);
}

TEST(Stats, CorrelationExtremes)
{
    const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
    const std::vector<double> up{2.0, 4.0, 6.0, 8.0};
    const std::vector<double> down{8.0, 6.0, 4.0, 2.0};
    const std::vector<double> flat{5.0, 5.0, 5.0, 5.0};
    EXPECT_NEAR(correlation(x, up), 1.0, 1e-12);
    EXPECT_NEAR(correlation(x, down), -1.0, 1e-12);
    EXPECT_DOUBLE_EQ(correlation(x, flat), 0.0);
}

TEST(OnlineStats, MatchesBatchStatistics)
{
    const std::vector<double> values{3.0, -1.0, 4.0, 1.0, 5.0, 9.0, 2.0};
    OnlineStats stats;
    for (double v : values) {
        stats.add(v);
    }
    EXPECT_EQ(stats.count(), values.size());
    EXPECT_NEAR(stats.mean(), mean(values), 1e-12);
    EXPECT_NEAR(stats.stddev(), stddev(values), 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), -1.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 23.0);
}

TEST(OnlineStats, EmptyAndSingle)
{
    OnlineStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    stats.add(7.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 7.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), 7.0);
    EXPECT_DOUBLE_EQ(stats.max(), 7.0);
}

} // namespace
} // namespace autoscale
