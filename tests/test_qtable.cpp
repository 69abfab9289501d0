/**
 * @file
 * Tests for the Q-table: indexing, argmax, random initialization,
 * serialization, the Section VI-C memory footprint, and copy-on-write
 * sharing of one base.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <locale>
#include <sstream>
#include <vector>

#include "core/qtable.h"
#include "util/rng.h"

namespace autoscale::core {
namespace {

TEST(QTable, StartsZeroed)
{
    QTable table(4, 3);
    for (int s = 0; s < 4; ++s) {
        for (int a = 0; a < 3; ++a) {
            EXPECT_FLOAT_EQ(table.at(s, a), 0.0f);
        }
    }
}

TEST(QTable, ReadWriteRoundTrip)
{
    QTable table(10, 5);
    table.at(7, 3) = 1.25f;
    EXPECT_FLOAT_EQ(table.at(7, 3), 1.25f);
    EXPECT_FLOAT_EQ(table.at(3, 7 % 5), 0.0f);
}

TEST(QTable, BestActionArgmaxAndTies)
{
    QTable table(2, 4);
    table.at(0, 1) = 5.0f;
    table.at(0, 2) = 5.0f; // tie breaks to the lowest id
    table.at(0, 3) = 4.0f;
    EXPECT_EQ(table.bestAction(0), 1);
    EXPECT_DOUBLE_EQ(table.maxValue(0), 5.0);
    // Untouched row: all zeros, argmax is action 0.
    EXPECT_EQ(table.bestAction(1), 0);
}

TEST(QTable, RandomizeStaysInRange)
{
    QTable table(50, 20);
    Rng rng(3);
    table.randomize(rng, 0.0, 1.0);
    bool any_nonzero = false;
    for (int s = 0; s < 50; ++s) {
        for (int a = 0; a < 20; ++a) {
            const float v = table.at(s, a);
            EXPECT_GE(v, 0.0f);
            EXPECT_LT(v, 1.0f);
            any_nonzero = any_nonzero || v != 0.0f;
        }
    }
    EXPECT_TRUE(any_nonzero);
}

TEST(QTable, MemoryFootprintMatchesSectionVIC)
{
    // The paper reports a 0.4 MB requirement for the full design space;
    // a float table of 3,072 x 66 lands in the same range.
    QTable table(3072, 66);
    EXPECT_EQ(table.memoryBytes(), 3072u * 66u * sizeof(float));
    const double mb =
        static_cast<double>(table.memoryBytes()) / (1024.0 * 1024.0);
    EXPECT_GT(mb, 0.3);
    EXPECT_LT(mb, 1.0);
}

TEST(QTable, SaveLoadRoundTrip)
{
    QTable table(6, 4);
    Rng rng(9);
    table.randomize(rng, -2.0, 2.0);
    std::stringstream stream;
    table.save(stream);
    const QTable loaded = QTable::load(stream);
    ASSERT_EQ(loaded.numStates(), 6);
    ASSERT_EQ(loaded.numActions(), 4);
    for (int s = 0; s < 6; ++s) {
        for (int a = 0; a < 4; ++a) {
            EXPECT_FLOAT_EQ(loaded.at(s, a), table.at(s, a));
        }
    }
}

TEST(QTable, SaveIsLocaleIndependent)
{
    // Q-table serialization feeds checkpoint bodies whose CRC is taken
    // over the exact bytes: a comma-decimal global locale must not
    // change them (save/load imbue the classic locale).
    QTable table(4, 3);
    Rng rng(11);
    table.randomize(rng, -2.0, 2.0);
    std::stringstream classicStream;
    table.save(classicStream);

    struct CommaDecimalPoint : std::numpunct<char> {
        char do_decimal_point() const override { return ','; }
    };
    const std::locale previous = std::locale::global(
        std::locale(std::locale::classic(), new CommaDecimalPoint));
    std::stringstream commaStream;
    table.save(commaStream);
    EXPECT_EQ(commaStream.str(), classicStream.str());
    const QTable loaded = QTable::load(commaStream);
    std::locale::global(previous);

    for (int s = 0; s < 4; ++s) {
        for (int a = 0; a < 3; ++a) {
            EXPECT_FLOAT_EQ(loaded.at(s, a), table.at(s, a));
        }
    }
}

TEST(HalfFloat, ExactValuesRoundTrip)
{
    for (float v : {0.0f, 1.0f, -1.0f, 0.5f, -2.75f, 1024.0f, -15.0f,
                    0.000061035156f /* smallest normal half */}) {
        EXPECT_FLOAT_EQ(halfToFloat(floatToHalf(v)), v) << v;
    }
}

TEST(HalfFloat, RelativeErrorWithinHalfPrecision)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const float v =
            static_cast<float>(rng.uniform(-5000.0, 5000.0));
        const float back = halfToFloat(floatToHalf(v));
        if (std::fabs(v) > 1e-3f) {
            EXPECT_NEAR(back, v, std::fabs(v) * 1e-3f + 1e-6f);
        }
    }
}

TEST(HalfFloat, OverflowSaturatesToInfinity)
{
    EXPECT_TRUE(std::isinf(halfToFloat(floatToHalf(1e10f))));
    EXPECT_TRUE(std::isinf(halfToFloat(floatToHalf(-1e10f))));
    EXPECT_LT(halfToFloat(floatToHalf(-1e10f)), 0.0f);
}

TEST(HalfFloat, SubnormalsSurvive)
{
    const float tiny = 3.0e-6f; // subnormal in half precision
    const float back = halfToFloat(floatToHalf(tiny));
    EXPECT_GT(back, 0.0f);
    EXPECT_NEAR(back, tiny, tiny * 0.05f);
}

TEST(PackedQTable, FootprintMatchesThePaper)
{
    // Section VI-C: "the memory requirement of AutoScale is 0.4 MB".
    QTable table(3072, 66);
    PackedQTable packed(table);
    const double mb = static_cast<double>(packed.memoryBytes())
        / (1024.0 * 1024.0);
    EXPECT_NEAR(mb, 0.39, 0.02);
    EXPECT_EQ(packed.memoryBytes() * 2, table.memoryBytes());
}

TEST(PackedQTable, PreservesGreedyDecisionsOnRealisticValues)
{
    // Q-values at mJ scale: gaps above the ~0.1% half quantization are
    // never flipped by packing.
    QTable table(64, 66);
    Rng rng(11);
    table.randomize(rng, -500.0, 0.0);
    PackedQTable packed(table);
    int agreement = 0;
    for (int s = 0; s < 64; ++s) {
        EXPECT_NEAR(packed.at(s, 3), table.at(s, 3),
                    std::fabs(table.at(s, 3)) * 1e-3 + 1e-3);
        if (packed.bestAction(s) == table.bestAction(s)) {
            ++agreement;
        }
    }
    EXPECT_GE(agreement, 62); // near-exact; random ties may flip
}

TEST(PackedQTable, UnpackRoundTrip)
{
    QTable table(8, 5);
    Rng rng(13);
    table.randomize(rng, -100.0, 0.0);
    const QTable unpacked = PackedQTable(table).unpack();
    for (int s = 0; s < 8; ++s) {
        for (int a = 0; a < 5; ++a) {
            EXPECT_NEAR(unpacked.at(s, a), table.at(s, a),
                        std::fabs(table.at(s, a)) * 1e-3 + 1e-3);
        }
    }
}

TEST(QTableDeath, AbsurdHeaderIsRejectedBeforeAllocating)
{
    // A corrupt or malicious header must not size a huge allocation.
    std::stringstream huge("999999999 999999999\n");
    EXPECT_EXIT({ QTable::load(huge); }, ::testing::ExitedWithCode(1),
                "absurd header");
    std::stringstream negative("-3 4\n");
    EXPECT_EXIT({ QTable::load(negative); },
                ::testing::ExitedWithCode(1), "malformed header");
}

TEST(QTableDeath, NonFiniteValuesAreRejected)
{
    std::stringstream nan_stream("2 2\n0.5 nan\n1.0 2.0\n");
    EXPECT_EXIT({ QTable::load(nan_stream); },
                ::testing::ExitedWithCode(1),
                "non-finite value at state 0, action 1");
    std::stringstream inf_stream("2 2\n0.5 1.5\ninf 2.0\n");
    EXPECT_EXIT({ QTable::load(inf_stream); },
                ::testing::ExitedWithCode(1),
                "non-finite value at state 1, action 0");
}

TEST(QTable, SoleOwnerWritesInPlace)
{
    QTable table(4, 3);
    const void *base = table.baseId();
    table.at(2, 1) = 7.0f;
    EXPECT_EQ(table.baseId(), base);
    EXPECT_TRUE(table.privateStates().empty());
    EXPECT_EQ(table.baseRow(2)[1], 7.0f);
}

TEST(QTable, SharedBaseCopiesOnlyTheWrittenRow)
{
    QTable source(4, 3);
    Rng rng(5);
    source.randomize(rng, -1.0, 1.0);
    const QTable before = source;
    QTable peer = source.share();
    EXPECT_EQ(peer.baseId(), source.baseId());

    peer.at(2, 1) = 9.0f;
    EXPECT_EQ(peer.privateStates(), (std::vector<int>{2}));
    EXPECT_EQ(peer.at(2, 1), 9.0f);
    // The rest of the copied row and every other row read as before.
    EXPECT_EQ(peer.at(2, 0), before.at(2, 0));
    EXPECT_EQ(peer.at(3, 2), before.at(3, 2));
    // The source still reads its own values (through a const view: a
    // non-const at() is a write access and copies the row), and its
    // writes copy too.
    const QTable &sourceView = source;
    EXPECT_EQ(sourceView.at(2, 1), before.at(2, 1));
    EXPECT_TRUE(source.privateStates().empty());
    source.at(0, 0) = -5.0f;
    EXPECT_EQ(source.privateStates(), (std::vector<int>{0}));
    EXPECT_EQ(peer.at(0, 0), before.at(0, 0));
    EXPECT_EQ(peer.bestAction(2), 1);
    EXPECT_DOUBLE_EQ(peer.maxValue(2), 9.0);
}

TEST(QTable, CopyIsIndependentAndDense)
{
    QTable source(4, 3);
    QTable peer = source.share();
    peer.at(1, 2) = 3.0f;
    const QTable copy = peer;
    EXPECT_NE(copy.baseId(), peer.baseId());
    EXPECT_TRUE(copy.privateStates().empty());
    EXPECT_EQ(copy.at(1, 2), 3.0f);
    // baseCopy leaves the private rows out.
    const QTable base = peer.baseCopy();
    EXPECT_EQ(base.at(1, 2), 0.0f);
    // memoryBytes stays the logical payload however rows are stored.
    EXPECT_EQ(peer.memoryBytes(), 4u * 3u * sizeof(float));
}

/** The reference firstMaxIndex must reproduce: keep a value only when
 * it is strictly greater than the best so far. */
int
strictGreaterScan(const float *values, int count)
{
    int best = 0;
    float bestValue = values[0];
    for (int a = 1; a < count; ++a) {
        if (values[a] > bestValue) {
            bestValue = values[a];
            best = a;
        }
    }
    return best;
}

/** Rows of every width from 1 to 131 drawn by @p draw, each checked
 * against the strict-`>` scan, and through a one-state QTable,
 * maxValue against row[bestAction] with its sign. */
template <typename Draw>
void
expectFirstMaxMatchesScan(std::uint64_t seed, int rowsPerWidth, Draw draw)
{
    Rng rng(seed);
    for (int width = 1; width <= 131; ++width) {
        QTable table(1, width);
        float *row = table.mutableRow(0);
        for (int r = 0; r < rowsPerWidth; ++r) {
            for (int a = 0; a < width; ++a) {
                row[a] = draw(rng);
            }
            const int expected = strictGreaterScan(row, width);
            ASSERT_EQ(firstMaxIndex(row, width), expected)
                << "width " << width << " row " << r;
            ASSERT_EQ(table.bestAction(0), expected);
            const double max = table.maxValue(0);
            const float atBest = row[expected];
            if (std::isnan(atBest)) {
                ASSERT_TRUE(std::isnan(max));
            } else {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(max),
                          std::bit_cast<std::uint64_t>(
                              static_cast<double>(atBest)))
                    << "width " << width << " row " << r;
            }
        }
    }
}

TEST(FirstMaxIndex, MatchesStrictScanOnRandomRows)
{
    expectFirstMaxMatchesScan(11, 200, [](Rng &rng) {
        return static_cast<float>(rng.uniform(-15.0, 0.0));
    });
}

TEST(FirstMaxIndex, MatchesStrictScanOnTies)
{
    // Four distinct values per row: the maximum repeats in most rows.
    expectFirstMaxMatchesScan(12, 200, [](Rng &rng) {
        return static_cast<float>(rng.uniformInt(4)) - 2.0f;
    });
}

TEST(FirstMaxIndex, KeepsTheSignOfTheFirstZeroAtTheMaximum)
{
    // -0 and +0 compare equal, so the first of them is the maximum and
    // maxValue must return its sign.
    expectFirstMaxMatchesScan(13, 200, [](Rng &rng) {
        const std::uint64_t pick = rng.uniformInt(3);
        return pick == 0 ? -0.0f : pick == 1 ? 0.0f : -1.0f;
    });
    const float row[] = {-0.0f, 0.0f, -1.0f, 0.0f, -0.0f};
    EXPECT_EQ(firstMaxIndex(row, 5), 0);
    QTable table(1, 5);
    std::copy(row, row + 5, table.mutableRow(0));
    EXPECT_TRUE(std::signbit(table.maxValue(0)));
}

TEST(FirstMaxIndex, MatchesStrictScanOnAllEqualRows)
{
    expectFirstMaxMatchesScan(14, 4, [](Rng &) { return -3.5f; });
    expectFirstMaxMatchesScan(15, 4, [](Rng &) { return 0.0f; });
    expectFirstMaxMatchesScan(16, 4, [](Rng &) {
        return -std::numeric_limits<float>::infinity();
    });
}

TEST(FirstMaxIndex, MatchesStrictScanOnRowsWithInfinitiesAndNaNs)
{
    // A Q-table never holds a NaN (parse rejects one and updates stay
    // finite), but the scan's answer is defined for them too: a NaN at
    // index 0 wins, any other NaN is passed over.
    expectFirstMaxMatchesScan(17, 100, [](Rng &rng) {
        switch (rng.uniformInt(8)) {
          case 0:
            return std::numeric_limits<float>::quiet_NaN();
          case 1:
            return std::numeric_limits<float>::infinity();
          case 2:
            return -std::numeric_limits<float>::infinity();
          default:
            return static_cast<float>(rng.uniform(-1.0, 1.0));
        }
    });
}

TEST(QTable, DimensionsReported)
{
    QTable table(3072, 66);
    EXPECT_EQ(table.numStates(), 3072);
    EXPECT_EQ(table.numActions(), 66);
}

} // namespace
} // namespace autoscale::core
