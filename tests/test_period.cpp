/**
 * @file
 * periodPhase against its reference, std::fmod, bit for bit: seeded
 * sweeps up to 1e12, exact multiples of the period and their
 * neighbours, phases below one period, zero, and the quotients past
 * 2^52 that keep std::fmod.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/period.h"
#include "util/rng.h"

namespace autoscale {
namespace {

/** The periods the serve loop and the fleet windows use, plus
 * non-integers whose multiples do not land on integers. */
const std::vector<double> kPeriods = {
    80.0, 1200.0, 2000.0, 0.1, 1.0 / 3.0, 7.3, 999.999, 1234.5678,
    2000.0000001, 3.0e7 + 0.25,
};

void
expectPhaseIsFmod(double x, double period)
{
    ASSERT_EQ(std::bit_cast<std::uint64_t>(periodPhase(x, period)),
              std::bit_cast<std::uint64_t>(std::fmod(x, period)))
        << "x=" << x << " period=" << period;
}

TEST(PeriodPhase, MatchesFmodOnSeededSweep)
{
    Rng rng(2005);
    for (const double period : kPeriods) {
        for (int i = 0; i < 20000; ++i) {
            expectPhaseIsFmod(rng.uniform(0.0, 1e12), period);
            // Log-uniform, so small times get as many cases as large.
            expectPhaseIsFmod(std::exp(rng.uniform(-20.0, 27.6)), period);
        }
    }
}

TEST(PeriodPhase, MatchesFmodAtMultiplesAndTheirNeighbours)
{
    Rng rng(52);
    int corrected = 0;
    for (const double period : kPeriods) {
        for (int i = 0; i < 5000; ++i) {
            const double k = i < 1000
                ? static_cast<double>(i)
                : std::floor(rng.uniform(0.0, 1e12 / period));
            const double x = k * period;
            for (const double probe :
                 {x, std::nextafter(x, 0.0), std::nextafter(x, 2e12),
                  std::nextafter(std::nextafter(x, 0.0), 0.0)}) {
                expectPhaseIsFmod(probe, period);
                // The division rounding up onto the next integer is
                // the case the one-step correction exists for.
                if (std::fma(-std::trunc(probe / period), period, probe)
                    < 0.0) {
                    ++corrected;
                }
            }
        }
    }
    EXPECT_GT(corrected, 0);
}

TEST(PeriodPhase, MatchesFmodBelowOnePeriodAndAtZero)
{
    Rng rng(3);
    for (const double period : kPeriods) {
        expectPhaseIsFmod(0.0, period);
        expectPhaseIsFmod(std::nextafter(period, 0.0), period);
        expectPhaseIsFmod(std::numeric_limits<double>::denorm_min(),
                          period);
        for (int i = 0; i < 1000; ++i) {
            expectPhaseIsFmod(rng.uniform(0.0, period), period);
        }
    }
}

TEST(PeriodPhase, QuotientsPastTwoToThe52KeepFmod)
{
    Rng rng(7);
    for (const double period : kPeriods) {
        const double edge = std::ldexp(period, 52);
        for (const double x :
             {edge, std::nextafter(edge, 0.0), std::nextafter(edge, 1e300),
              edge * 3.0, 1e300}) {
            expectPhaseIsFmod(x, period);
        }
        for (int i = 0; i < 1000; ++i) {
            expectPhaseIsFmod(edge * rng.uniform(0.5, 4.0), period);
        }
    }
}

} // namespace
} // namespace autoscale
