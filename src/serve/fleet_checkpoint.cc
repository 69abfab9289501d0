#include "serve/fleet_checkpoint.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "serve/fleet.h"
#include "util/atomic_file.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace autoscale::serve {

namespace {

constexpr const char *kMagic = "autoscale-fleet-checkpoint";
constexpr const char *kVersion = "v1";
// Same allocation guard as the single-device checkpoint decoder.
constexpr long long kMaxElements = 1LL << 26;

/** Golden-ratio fold (the serve RNG fingerprint mix). */
std::uint64_t
mix(std::uint64_t hash, std::uint64_t value)
{
    return hash
        ^ (value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2));
}

std::uint64_t
mixDouble(std::uint64_t hash, double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    __builtin_memcpy(&bits, &value, sizeof(bits));
    return mix(hash, bits);
}

std::uint64_t
mixString(std::uint64_t hash, const std::string &value)
{
    hash = mix(hash, value.size());
    for (const char c : value) {
        hash = mix(hash, static_cast<unsigned char>(c));
    }
    return hash;
}

void
setError(std::string *error, const std::string &message)
{
    if (error != nullptr) {
        *error = message;
    }
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream file(path, std::ios::binary);
    if (!file) {
        return false;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    *out = buffer.str();
    return true;
}

char
hexDigit(std::uint64_t nibble)
{
    return "0123456789abcdef"[nibble & 0xf];
}

std::string
hex64(std::uint64_t value)
{
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = hexDigit(value);
        value >>= 4;
    }
    return out;
}

bool
parseHex64(const std::string &text, std::uint64_t *out)
{
    if (text.size() != 16) {
        return false;
    }
    std::uint64_t value = 0;
    for (const char c : text) {
        value <<= 4;
        if (c >= '0' && c <= '9') {
            value |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            value |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            return false;
        }
    }
    *out = value;
    return true;
}

} // namespace

std::uint64_t
fleetConfigDigest(const FleetConfig &config)
{
    // Every field the replayed trajectory depends on. Pure parallelism
    // knobs (shards, jobs) and output-collection knobs (collectQTables)
    // are deliberately excluded: resuming under a different shard count
    // is the same trajectory.
    std::uint64_t hash = mixString(0, "fleet-config-v1");
    hash = mix(hash, static_cast<std::uint64_t>(config.devices));
    hash = mixDouble(hash, config.epochMs);
    hash = mix(hash, static_cast<std::uint64_t>(config.qMode));
    hash = mix(hash,
               static_cast<std::uint64_t>(config.federatedMergeEpochs));

    const ServeConfig &serve = config.serve;
    hash = mix(hash, serve.seed);
    hash = mix(hash, static_cast<std::uint64_t>(serve.totalRequests));
    hash = mix(hash, static_cast<std::uint64_t>(serve.scenario));
    hash = mixString(hash, serve.policyName);
    hash = mixString(hash, serve.networkFilter);
    hash = mixDouble(hash, serve.accuracyTargetPct);
    hash = mix(hash, static_cast<std::uint64_t>(serve.trainRunsPerCombo));
    hash = mix(hash, serve.breakerEnabled ? 1 : 0);
    hash = mixDouble(hash, serve.arrival.ratePerSec);
    hash = mixDouble(hash, serve.arrival.burstPeriodMs);
    hash = mixDouble(hash, serve.arrival.burstDurationMs);
    hash = mixDouble(hash, serve.arrival.burstMultiplier);
    hash = mixDouble(hash, serve.arrival.diurnalPeriodMs);
    hash = mixDouble(hash, serve.arrival.diurnalAmplitude);
    hash = mix(hash, static_cast<std::uint64_t>(serve.admission.maxDepth));
    hash = mix(hash,
               static_cast<std::uint64_t>(serve.admission.degradeDepth));

    const SharedInfraConfig &infra = config.infra;
    hash = mixDouble(hash, infra.edgeCapacity);
    hash = mixDouble(hash, infra.wifiCapacity);
    hash = mixDouble(hash, infra.contention);
    hash = mixDouble(hash, infra.brownoutPeriodMs);
    hash = mixDouble(hash, infra.brownoutDurationMs);
    hash = mixDouble(hash, infra.brownoutSlowdown);
    hash = mixDouble(hash, infra.outagePeriodMs);
    hash = mixDouble(hash, infra.outageDurationMs);

    const ChurnConfig &churn = config.churn;
    hash = mixDouble(hash, churn.crashProb);
    hash = mixDouble(hash, churn.leaveProb);
    hash = mix(hash, static_cast<std::uint64_t>(churn.downEpochs));
    hash = mix(hash, static_cast<std::uint64_t>(churn.initialDevices));
    hash = mix(hash, static_cast<std::uint64_t>(churn.joinEveryEpochs));
    return hash;
}

std::string
encodeFleetManifest(const FleetManifest &manifest)
{
    std::ostringstream body;
    body << kMagic << ' ' << kVersion << ' '
         << hex64(manifest.configDigest) << ' ' << manifest.epoch << ' '
         << hex64(manifest.stateDigest) << '\n';
    body << "devices " << manifest.devices << '\n';
    body << "churn "
         << (manifest.churnState.empty() ? "-" : manifest.churnState)
         << '\n';
    if (manifest.hasTable) {
        body << "qtable\n";
        manifest.table.save(body);
    } else {
        body << "qtable -\n";
    }
    std::string bytes = body.str();

    char footer[32];
    std::snprintf(footer, sizeof(footer), "crc32 %08x\n",
                  crc32(bytes.data(), bytes.size()));
    bytes += footer;
    return bytes;
}

bool
decodeFleetManifest(const std::string &bytes, FleetManifest *out,
                    std::string *error)
{
    if (bytes.empty()) {
        setError(error, "empty fleet manifest");
        return false;
    }
    if (bytes.back() != '\n') {
        setError(error, "truncated fleet manifest (no final newline)");
        return false;
    }
    const std::size_t footerStart = bytes.rfind("crc32 ");
    if (footerStart == std::string::npos
        || (footerStart != 0 && bytes[footerStart - 1] != '\n')) {
        setError(error, "missing crc32 footer (truncated manifest?)");
        return false;
    }
    unsigned long storedCrc = 0;
    {
        std::istringstream footer(bytes.substr(footerStart + 6));
        if (!(footer >> std::hex >> storedCrc)) {
            setError(error, "unparseable crc32 footer");
            return false;
        }
    }
    const std::uint32_t actualCrc = crc32(bytes.data(), footerStart);
    if (actualCrc != static_cast<std::uint32_t>(storedCrc)) {
        char message[96];
        std::snprintf(message, sizeof(message),
                      "crc32 mismatch (stored %08lx, computed %08x)",
                      storedCrc, actualCrc);
        setError(error, message);
        return false;
    }

    std::istringstream is(bytes.substr(0, footerStart));
    std::string magic;
    std::string version;
    std::string configHex;
    std::string stateHex;
    std::int64_t epoch = 0;
    if (!(is >> magic >> version >> configHex >> epoch >> stateHex)) {
        setError(error, "malformed fleet manifest header");
        return false;
    }
    if (magic != kMagic || version != kVersion) {
        setError(error, "not an " + std::string(kMagic) + " "
                            + kVersion + " file");
        return false;
    }
    FleetManifest manifest;
    manifest.epoch = epoch;
    if (epoch < 0) {
        setError(error, "negative epoch in fleet manifest header");
        return false;
    }
    if (!parseHex64(configHex, &manifest.configDigest)
        || !parseHex64(stateHex, &manifest.stateDigest)) {
        setError(error, "unparseable digest in fleet manifest header");
        return false;
    }

    std::string key;
    if (!(is >> key) || key != "devices"
        || !(is >> manifest.devices) || manifest.devices < 1) {
        setError(error, "malformed devices line in fleet manifest");
        return false;
    }
    if (!(is >> key) || key != "churn" || !(is >> manifest.churnState)) {
        setError(error, "malformed churn line in fleet manifest");
        return false;
    }
    // The churn state is space-separated per-device tokens; the header
    // word read above is the first token, the rest follow until the
    // qtable section key.
    std::string token;
    while (is >> token && token != "qtable") {
        manifest.churnState += ' ';
        manifest.churnState += token;
    }
    if (token != "qtable") {
        setError(error, "missing qtable section in fleet manifest");
        return false;
    }

    // Either "-" (no table) or QTable::save text (dims then values).
    if (!(is >> token)) {
        setError(error, "truncated qtable section in fleet manifest");
        return false;
    }
    if (token != "-") {
        long long states = 0;
        long long actions = 0;
        try {
            states = std::stoll(token);
        } catch (...) {
            setError(error, "invalid Q-table dimensions in manifest");
            return false;
        }
        if (!(is >> actions) || states <= 0 || actions <= 0
            || states > kMaxElements || actions > kMaxElements
            || states * actions > kMaxElements) {
            setError(error, "invalid Q-table dimensions in manifest");
            return false;
        }
        core::QTable table(static_cast<int>(states),
                           static_cast<int>(actions));
        for (int s = 0; s < states; ++s) {
            for (int a = 0; a < actions; ++a) {
                float value = 0.0f;
                if (!(is >> value)) {
                    setError(error, "truncated Q-table in manifest");
                    return false;
                }
                if (!std::isfinite(value)) {
                    setError(error, "non-finite Q value in manifest");
                    return false;
                }
                table.at(s, a) = value;
            }
        }
        manifest.hasTable = true;
        manifest.table = std::move(table);
    }

    if (out != nullptr) {
        *out = std::move(manifest);
    }
    return true;
}

FleetCheckpointManager::FleetCheckpointManager(std::string path)
    : path_(std::move(path)), prevPath_(path_ + ".prev")
{
    AS_CHECK(!path_.empty());
}

bool
FleetCheckpointManager::save(const FleetManifest &manifest,
                             std::string *error)
{
    // Same rotate-then-atomic-write dance as CheckpointManager::save:
    // a SIGKILL between the two leaves `.prev` intact, and the new
    // primary is never observable half-written.
    std::ifstream exists(path_, std::ios::binary);
    if (exists) {
        exists.close();
        if (std::rename(path_.c_str(), prevPath_.c_str()) != 0) {
            setError(error, "cannot rotate '" + path_ + "' to '"
                                + prevPath_ + "'");
            return false;
        }
    }
    if (!atomicWriteFile(path_, encodeFleetManifest(manifest), error)) {
        return false;
    }
    ++written_;
    return true;
}

FleetManifestLoadResult
FleetCheckpointManager::load() const
{
    FleetManifestLoadResult result;
    std::string bytes;

    if (readFile(path_, &bytes)) {
        std::string error;
        if (decodeFleetManifest(bytes, &result.data, &error)) {
            result.loaded = true;
            result.source = CheckpointSource::Primary;
            return result;
        }
        ++result.corruptDetected;
        result.error = path_ + ": " + error;
    }

    if (readFile(prevPath_, &bytes)) {
        std::string error;
        if (decodeFleetManifest(bytes, &result.data, &error)) {
            result.loaded = true;
            result.source = CheckpointSource::Previous;
            return result;
        }
        ++result.corruptDetected;
        const std::string prevError = prevPath_ + ": " + error;
        result.error = result.error.empty()
            ? prevError : result.error + "; " + prevError;
    }

    return result;
}

} // namespace autoscale::serve
