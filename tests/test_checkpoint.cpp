/**
 * @file
 * Tests for the crash-safe checkpoint format (DESIGN.md §12): CRC32
 * vectors, encode/decode round trips of the device checkpoint and the
 * fleet manifest, corruption and truncation detection for both, their
 * bytes under a comma-decimal global locale, and the two-deep rotation
 * of the CheckpointManager store they share.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <locale>
#include <string>

#include "core/qtable.h"
#include "serve/checkpoint.h"
#include "serve/fleet_checkpoint.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace autoscale::serve {
namespace {

core::QTable
makeTable(std::uint64_t seed = 9)
{
    core::QTable table(6, 4);
    Rng rng(seed);
    table.randomize(rng, -2.0, 2.0);
    return table;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

/** Unique scratch path under the test temp dir. */
std::string
scratchPath(const std::string &name)
{
    return testing::TempDir() + "autoscale_ckpt_" + name;
}

FleetManifest
makeManifest(std::int64_t epoch, bool hasTable = true)
{
    FleetManifest manifest;
    manifest.configDigest = 0x0123456789abcdefULL;
    manifest.epoch = epoch;
    manifest.stateDigest = 0xfedcba9876543210ULL + epoch;
    manifest.devices = 3;
    manifest.churnState = "0:up 1:down:2 2:gone";
    manifest.hasTable = hasTable;
    manifest.table = makeTable(static_cast<std::uint64_t>(epoch));
    return manifest;
}

void
expectSameTable(const core::QTable &actual, const core::QTable &expected)
{
    ASSERT_EQ(actual.numStates(), expected.numStates());
    ASSERT_EQ(actual.numActions(), expected.numActions());
    for (int s = 0; s < expected.numStates(); ++s) {
        for (int a = 0; a < expected.numActions(); ++a) {
            EXPECT_FLOAT_EQ(actual.at(s, a), expected.at(s, a));
        }
    }
}

/** The signature of decodeCheckpoint and decodeFleetManifest. */
template <typename Data>
using Decoder = bool (*)(const std::string &, Data *, std::string *);

/**
 * Flip the low bit of one byte at a time across @p bytes; every
 * mutation must be rejected (CRC for the body, parse checks for the
 * footer). Note ^0x20 would be too weak a test here: a case-flipped
 * hex digit in the footer parses to the same CRC.
 */
template <typename Data>
void
expectEveryFlippedByteRejected(const std::string &bytes,
                               Decoder<Data> decode)
{
    for (std::size_t i = 0; i < bytes.size(); i += 7) {
        std::string mutated = bytes;
        mutated[i] = static_cast<char>(mutated[i] ^ 0x01);
        Data decoded;
        std::string error;
        EXPECT_FALSE(decode(mutated, &decoded, &error))
            << "offset " << i << " accepted";
    }
}

/** Every cut of @p bytes, down to the last footer byte, is rejected. */
template <typename Data>
void
expectTruncationRejected(const std::string &bytes, Decoder<Data> decode)
{
    Data decoded;
    std::string error;
    for (const double fraction : {0.0, 0.25, 0.5, 0.9}) {
        const std::string cut = bytes.substr(
            0, static_cast<std::size_t>(fraction
                                        * static_cast<double>(bytes.size())));
        EXPECT_FALSE(decode(cut, &decoded, &error)) << "kept " << fraction;
    }
    // Cutting just the last byte of the footer must also fail.
    EXPECT_FALSE(decode(bytes.substr(0, bytes.size() - 1), &decoded,
                        &error));
}

/** The device checkpoint as the store sees it, keyed by its step. */
struct DeviceCodec {
    static std::string
    encode(std::int64_t step)
    {
        return encodeCheckpoint("fp", step,
                                makeTable(static_cast<std::uint64_t>(step)));
    }
    static constexpr Decoder<CheckpointData> decode = decodeCheckpoint;
    static std::int64_t step(const CheckpointData &data) { return data.step; }
};

/** The fleet manifest as the store sees it, keyed by its epoch. */
struct ManifestCodec {
    static std::string
    encode(std::int64_t epoch)
    {
        return encodeFleetManifest(makeManifest(epoch));
    }
    static constexpr Decoder<FleetManifest> decode = decodeFleetManifest;
    static std::int64_t step(const FleetManifest &data) { return data.epoch; }
};

template <typename Codec>
void
checkSaveRotatesAndLoadPrefersPrimary(const std::string &name)
{
    const std::string path = scratchPath(name);
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());

    CheckpointManager manager(path);
    ASSERT_TRUE(manager.save(Codec::encode(10)));
    ASSERT_TRUE(manager.save(Codec::encode(20)));
    EXPECT_EQ(manager.written(), 2);

    const auto result = manager.load(Codec::decode);
    ASSERT_TRUE(result.loaded);
    EXPECT_EQ(result.source, CheckpointSource::Primary);
    EXPECT_EQ(Codec::step(result.data), 20);
    EXPECT_EQ(result.corruptDetected, 0);

    // The rotated previous file holds the older step.
    decltype(result.data) prev;
    std::string error;
    ASSERT_TRUE(Codec::decode(readFile(manager.prevPath()), &prev, &error))
        << error;
    EXPECT_EQ(Codec::step(prev), 10);
}

template <typename Codec>
void
checkCorruptPrimaryFallsBackToPrevious(const std::string &name)
{
    const std::string path = scratchPath(name);
    CheckpointManager manager(path);
    ASSERT_TRUE(manager.save(Codec::encode(10)));
    ASSERT_TRUE(manager.save(Codec::encode(20)));

    // Simulate a torn write: chop the tail off the primary.
    const std::string bytes = readFile(path);
    writeFile(path, bytes.substr(0, bytes.size() / 2));

    const auto result = manager.load(Codec::decode);
    ASSERT_TRUE(result.loaded);
    EXPECT_EQ(result.source, CheckpointSource::Previous);
    EXPECT_EQ(Codec::step(result.data), 10);
    EXPECT_EQ(result.corruptDetected, 1);
    EXPECT_NE(result.error.find(path + ": "), std::string::npos)
        << result.error;
}

template <typename Codec>
void
checkNothingToRecoverIsACleanColdStart(const std::string &name)
{
    const std::string path = scratchPath(name);
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    const auto result = CheckpointManager(path).load(Codec::decode);
    EXPECT_FALSE(result.loaded);
    EXPECT_EQ(result.source, CheckpointSource::None);
    EXPECT_EQ(result.corruptDetected, 0);
}

template <typename Codec>
void
checkBothCopiesCorruptReportsBoth(const std::string &name)
{
    const std::string path = scratchPath(name);
    CheckpointManager manager(path);
    ASSERT_TRUE(manager.save(Codec::encode(10)));
    ASSERT_TRUE(manager.save(Codec::encode(20)));
    writeFile(path, "garbage");
    writeFile(path + ".prev", "more garbage");

    const auto result = manager.load(Codec::decode);
    EXPECT_FALSE(result.loaded);
    EXPECT_EQ(result.source, CheckpointSource::None);
    EXPECT_EQ(result.corruptDetected, 2);
    EXPECT_NE(result.error.find(path + ": "), std::string::npos)
        << result.error;
    EXPECT_NE(result.error.find("; " + path + ".prev: "), std::string::npos)
        << result.error;
}

/**
 * A German-style numeric facet: comma decimal point and dot-grouped
 * thousands. Installed as the global locale, it changes how a stream
 * built afterwards writes and reads 0.5 and 1234.
 */
struct CommaDecimalPoint : std::numpunct<char> {
    char do_decimal_point() const override { return ','; }
    char do_thousands_sep() const override { return '.'; }
    std::string do_grouping() const override { return "\3"; }
};

/** Installs CommaDecimalPoint as the global locale for its lifetime. */
class CommaDecimalGlobalLocale {
  public:
    CommaDecimalGlobalLocale()
        : previous_(std::locale::global(std::locale(
            std::locale::classic(), new CommaDecimalPoint)))
    {
    }
    ~CommaDecimalGlobalLocale() { std::locale::global(previous_); }

  private:
    std::locale previous_;
};

TEST(Crc32, CanonicalCheckValue)
{
    // IEEE 802.3 check vector.
    EXPECT_EQ(crc32(std::string("123456789")), 0xcbf43926u);
    EXPECT_EQ(crc32(std::string()), 0u);
}

TEST(Crc32, IncrementalMatchesWholeBuffer)
{
    const std::string bytes = "autoscale-checkpoint v1 demo 42\n0 1\n";
    std::uint32_t running = 0;
    for (const char c : bytes) {
        running = crc32Update(running, &c, 1);
    }
    EXPECT_EQ(running, crc32(bytes));
}

TEST(Checkpoint, EncodeDecodeRoundTrip)
{
    const core::QTable table = makeTable();
    const std::string bytes = encodeCheckpoint("fingerprint-abc", 321,
                                               table);
    CheckpointData decoded;
    std::string error;
    ASSERT_TRUE(decodeCheckpoint(bytes, &decoded, &error)) << error;
    EXPECT_EQ(decoded.fingerprint, "fingerprint-abc");
    EXPECT_EQ(decoded.step, 321);
    expectSameTable(decoded.table, table);
}

TEST(Checkpoint, EveryFlippedByteIsDetected)
{
    expectEveryFlippedByteRejected(encodeCheckpoint("fp", 7, makeTable()),
                                   decodeCheckpoint);
}

TEST(Checkpoint, TruncationIsDetected)
{
    expectTruncationRejected(encodeCheckpoint("fp", 7, makeTable()),
                             decodeCheckpoint);
}

TEST(Checkpoint, WrongMagicIsRejected)
{
    std::string bytes = encodeCheckpoint("fp", 7, makeTable());
    bytes.replace(0, 9, "malicious");
    CheckpointData decoded;
    std::string error;
    EXPECT_FALSE(decodeCheckpoint(bytes, &decoded, &error));
}

TEST(FleetManifest, EncodeDecodeRoundTrip)
{
    for (const bool hasTable : {true, false}) {
        SCOPED_TRACE(hasTable ? "with table" : "qtable -");
        const FleetManifest manifest = makeManifest(4321, hasTable);
        FleetManifest decoded;
        std::string error;
        ASSERT_TRUE(decodeFleetManifest(encodeFleetManifest(manifest),
                                        &decoded, &error))
            << error;
        EXPECT_EQ(decoded.configDigest, manifest.configDigest);
        EXPECT_EQ(decoded.epoch, manifest.epoch);
        EXPECT_EQ(decoded.stateDigest, manifest.stateDigest);
        EXPECT_EQ(decoded.devices, manifest.devices);
        EXPECT_EQ(decoded.churnState, manifest.churnState);
        ASSERT_EQ(decoded.hasTable, hasTable);
        if (hasTable) {
            expectSameTable(decoded.table, manifest.table);
        }
    }
}

TEST(FleetManifest, EveryFlippedByteIsDetected)
{
    expectEveryFlippedByteRejected(encodeFleetManifest(makeManifest(7)),
                                   decodeFleetManifest);
}

TEST(FleetManifest, TruncationIsDetected)
{
    expectTruncationRejected(encodeFleetManifest(makeManifest(7)),
                             decodeFleetManifest);
}

TEST(CheckpointFormat, SameBytesAndRoundTripUnderCommaDecimalLocale)
{
    // Both codecs write and read their whole body in the classic
    // locale, so a comma-decimal global locale changes neither the
    // bytes nor what they decode to.
    const core::QTable table = makeTable();
    const FleetManifest manifest = makeManifest(1234);
    const std::string checkpointBytes =
        encodeCheckpoint("fp", 1234567, table);
    const std::string manifestBytes = encodeFleetManifest(manifest);

    const CommaDecimalGlobalLocale comma;
    EXPECT_EQ(encodeCheckpoint("fp", 1234567, table), checkpointBytes);
    EXPECT_EQ(encodeFleetManifest(manifest), manifestBytes);

    CheckpointData checkpoint;
    std::string error;
    ASSERT_TRUE(decodeCheckpoint(checkpointBytes, &checkpoint, &error))
        << error;
    EXPECT_EQ(checkpoint.step, 1234567);
    expectSameTable(checkpoint.table, table);

    FleetManifest decoded;
    ASSERT_TRUE(decodeFleetManifest(manifestBytes, &decoded, &error))
        << error;
    EXPECT_EQ(decoded.epoch, 1234);
    expectSameTable(decoded.table, manifest.table);
}

TEST(CheckpointManager, SaveRotatesAndLoadPrefersPrimary)
{
    checkSaveRotatesAndLoadPrefersPrimary<DeviceCodec>("rotate");
}

TEST(CheckpointManager, CorruptPrimaryFallsBackToPrevious)
{
    checkCorruptPrimaryFallsBackToPrevious<DeviceCodec>("fallback");
}

TEST(CheckpointManager, NothingToRecoverIsACleanColdStart)
{
    checkNothingToRecoverIsACleanColdStart<DeviceCodec>("missing");
}

TEST(CheckpointManager, BothCopiesCorruptReportsBoth)
{
    checkBothCopiesCorruptReportsBoth<DeviceCodec>("double");
}

TEST(CheckpointManager, ManifestSaveRotatesAndLoadPrefersPrimary)
{
    checkSaveRotatesAndLoadPrefersPrimary<ManifestCodec>("manifest_rotate");
}

TEST(CheckpointManager, ManifestCorruptPrimaryFallsBackToPrevious)
{
    checkCorruptPrimaryFallsBackToPrevious<ManifestCodec>(
        "manifest_fallback");
}

TEST(CheckpointManager, ManifestNothingToRecoverIsACleanColdStart)
{
    checkNothingToRecoverIsACleanColdStart<ManifestCodec>(
        "manifest_missing");
}

TEST(CheckpointManager, ManifestBothCopiesCorruptReportsBoth)
{
    checkBothCopiesCorruptReportsBoth<ManifestCodec>("manifest_double");
}

} // namespace
} // namespace autoscale::serve
