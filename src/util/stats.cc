#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace autoscale {

double
mean(const std::vector<double> &values)
{
    if (values.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (double v : values) {
        sum += v;
    }
    return sum / static_cast<double>(values.size());
}

double
stddev(const std::vector<double> &values)
{
    if (values.size() < 2) {
        return 0.0;
    }
    const double m = mean(values);
    double sum_sq = 0.0;
    for (double v : values) {
        sum_sq += (v - m) * (v - m);
    }
    return std::sqrt(sum_sq / static_cast<double>(values.size() - 1));
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty()) {
        return 0.0;
    }
    double log_sum = 0.0;
    for (double v : values) {
        AS_CHECK(v > 0.0);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
percentile(std::vector<double> values, double p)
{
    AS_CHECK(!values.empty());
    AS_CHECK(p >= 0.0 && p <= 100.0);
    std::sort(values.begin(), values.end());
    if (values.size() == 1) {
        return values.front();
    }
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

namespace {

/** 0-based sorted index of the nearest-rank @p p percentile of @p n > 0
 * samples. */
std::size_t
nearestRankIndex(std::size_t n, double p)
{
    const double rank = p / 100.0 * static_cast<double>(n);
    // ceil(rank) is the 1-based nearest rank; clamp to [1, n] before the
    // 0-based conversion so p0 cannot underflow and p100 cannot read one
    // past the end.
    return std::min(
        n - 1,
        static_cast<std::size_t>(std::max(0.0, std::ceil(rank) - 1.0)));
}

} // namespace

double
percentileNearestRank(std::vector<double> values, double p)
{
    return percentilesNearestRank(values, p, p).first;
}

std::pair<double, double>
percentilesNearestRank(std::vector<double> &values, double lower,
                       double upper)
{
    AS_CHECK(lower >= 0.0 && lower <= upper && upper <= 100.0);
    if (values.empty()) {
        return {0.0, 0.0};
    }
    const auto low = values.begin()
        + static_cast<std::ptrdiff_t>(nearestRankIndex(values.size(), lower));
    const auto high = values.begin()
        + static_cast<std::ptrdiff_t>(nearestRankIndex(values.size(), upper));
    std::nth_element(values.begin(), low, values.end());
    // Everything after `low` is >= it, so the upper rank lies there.
    if (high != low) {
        std::nth_element(low + 1, high, values.end());
    }
    return {*low, *high};
}

double
mape(const std::vector<double> &predicted, const std::vector<double> &actual)
{
    AS_CHECK(predicted.size() == actual.size());
    if (predicted.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (std::size_t i = 0; i < predicted.size(); ++i) {
        AS_CHECK(actual[i] != 0.0);
        sum += std::fabs((predicted[i] - actual[i]) / actual[i]);
    }
    return 100.0 * sum / static_cast<double>(predicted.size());
}

double
correlation(const std::vector<double> &a, const std::vector<double> &b)
{
    AS_CHECK(a.size() == b.size());
    if (a.size() < 2) {
        return 0.0;
    }
    const double ma = mean(a);
    const double mb = mean(b);
    double cov = 0.0;
    double va = 0.0;
    double vb = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        cov += (a[i] - ma) * (b[i] - mb);
        va += (a[i] - ma) * (a[i] - ma);
        vb += (b[i] - mb) * (b[i] - mb);
    }
    if (va <= 0.0 || vb <= 0.0) {
        return 0.0;
    }
    return cov / std::sqrt(va * vb);
}

void
OnlineStats::add(double value)
{
    if (count_ == 0) {
        min_ = value;
        max_ = value;
    } else {
        min_ = std::min(min_, value);
        max_ = std::max(max_, value);
    }
    ++count_;
    sum_ += value;
    const double delta = value - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (value - mean_);
}

double
OnlineStats::variance() const
{
    if (count_ < 2) {
        return 0.0;
    }
    return m2_ / static_cast<double>(count_ - 1);
}

double
OnlineStats::stddev() const
{
    return std::sqrt(variance());
}

} // namespace autoscale
