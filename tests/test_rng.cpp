/** @file Unit tests for the deterministic RNG (util/rng.h). */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/rng.h"
#include "util/rng_jump.h"
#include "util/stats.h"

namespace autoscale {
namespace {

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformMeanIsCentered)
{
    Rng rng(11);
    OnlineStats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(rng.uniform());
    }
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntStaysBelowBound)
{
    Rng rng(13);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 66ULL, 3072ULL}) {
        for (int i = 0; i < 2000; ++i) {
            EXPECT_LT(rng.uniformInt(bound), bound);
        }
    }
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(17);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        seen.insert(rng.uniformInt(10));
    }
    EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(19);
    OnlineStats stats;
    for (int i = 0; i < 100000; ++i) {
        stats.add(rng.normal());
    }
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalShiftScale)
{
    Rng rng(23);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i) {
        stats.add(rng.normal(-70.0, 9.0));
    }
    EXPECT_NEAR(stats.mean(), -70.0, 0.2);
    EXPECT_NEAR(stats.stddev(), 9.0, 0.2);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(29);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i) {
        if (rng.bernoulli(0.1)) {
            ++hits;
        }
    }
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.1, 0.01);
}

TEST(Rng, LognormalFactorIsPositiveAndCentered)
{
    Rng rng(31);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i) {
        const double f = rng.lognormalFactor(0.09);
        EXPECT_GT(f, 0.0);
        stats.add(f);
    }
    // E[lognormal(0, s)] = exp(s^2/2).
    EXPECT_NEAR(stats.mean(), std::exp(0.09 * 0.09 / 2.0), 0.01);
}

TEST(Rng, LognormalMapeMatchesEnergyEstimatorTarget)
{
    // The simulator relies on sigma = 0.09 producing ~7.3% MAPE
    // (Section IV-A's Renergy estimation error).
    Rng rng(37);
    double sum_ape = 0.0;
    const int trials = 200000;
    for (int i = 0; i < trials; ++i) {
        sum_ape += std::fabs(rng.lognormalFactor(0.09) - 1.0);
    }
    const double mape = 100.0 * sum_ape / trials;
    EXPECT_NEAR(mape, 7.3, 0.5);
}

TEST(Rng, StateRoundTripResumesExactly)
{
    Rng a(43);
    a.next();
    a.next();
    std::uint64_t state[4];
    a.state(state);
    Rng b;
    b.setState(state);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(RngJump, MatchesNaiveStepping)
{
    // The GF(2) jump must land exactly where N next() calls land, for
    // step counts spanning several bit patterns: around the degree of
    // the characteristic polynomial (256), 3072 * 66 (the Q-table
    // randomize a warm-started agent skips), and past 2^20.
    for (const std::uint64_t steps :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2},
          std::uint64_t{255}, std::uint64_t{256}, std::uint64_t{257},
          std::uint64_t{3072} * 66, (std::uint64_t{1} << 20) + 3}) {
        const util::RngJump jump(steps);
        const util::RngJump matrix = jump.expanded();
        Rng jumped(47);
        Rng viaMatrix(47);
        Rng stepped(47);
        jump.apply(jumped);
        matrix.apply(viaMatrix);
        for (std::uint64_t i = 0; i < steps; ++i) {
            stepped.next();
        }
        for (int i = 0; i < 16; ++i) {
            const std::uint64_t expected = stepped.next();
            EXPECT_EQ(jumped.next(), expected)
                << "diverged after jump of " << steps;
            EXPECT_EQ(viaMatrix.next(), expected)
                << "expanded jump diverged after jump of " << steps;
        }
    }
}

TEST(RngJump, ComposesAcrossSplits)
{
    // Jump(a) then Jump(b) == Jump(a + b): linearity sanity check.
    const util::RngJump jumpA(1000);
    const util::RngJump jumpB(234);
    const util::RngJump jumpAB(1234);
    Rng split(51);
    Rng whole(51);
    jumpA.apply(split);
    jumpB.apply(split);
    jumpAB.apply(whole);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(split.next(), whole.next());
    }
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng parent(41);
    Rng child = parent.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (parent.next() == child.next()) {
            ++same;
        }
    }
    EXPECT_EQ(same, 0);
}

} // namespace
} // namespace autoscale
