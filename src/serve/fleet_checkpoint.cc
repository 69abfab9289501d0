#include "serve/fleet_checkpoint.h"

#include <utility>

#include "serve/fleet.h"
#include "util/hash_mix.h"

namespace autoscale::serve {

namespace {

constexpr const char *kMagic = "autoscale-fleet-checkpoint";
constexpr const char *kVersion = "v1";

/** mixHash over a string's length, then each of its bytes. */
std::uint64_t
mixString(std::uint64_t hash, const std::string &value)
{
    hash = mixHash(hash, value.size());
    for (const char c : value) {
        hash = mixHash(hash, static_cast<unsigned char>(c));
    }
    return hash;
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
    hash = mixHash(hash, static_cast<std::uint64_t>(config.devices));
    hash = mixHashDouble(hash, config.epochMs);
    hash = mixHash(hash, static_cast<std::uint64_t>(config.qMode));
    hash = mixHash(hash,
                   static_cast<std::uint64_t>(config.federatedMergeEpochs));

    const ServeConfig &serve = config.serve;
    hash = mixHash(hash, serve.seed);
    hash = mixHash(hash, static_cast<std::uint64_t>(serve.totalRequests));
    hash = mixHash(hash, static_cast<std::uint64_t>(serve.scenario));
    hash = mixString(hash, serve.policyName);
    hash = mixString(hash, serve.networkFilter);
    hash = mixHashDouble(hash, serve.accuracyTargetPct);
    hash = mixHash(hash, static_cast<std::uint64_t>(serve.trainRunsPerCombo));
    hash = mixHash(hash, serve.breakerEnabled ? 1 : 0);
    hash = mixHashDouble(hash, serve.arrival.ratePerSec);
    hash = mixHashDouble(hash, serve.arrival.burstPeriodMs);
    hash = mixHashDouble(hash, serve.arrival.burstDurationMs);
    hash = mixHashDouble(hash, serve.arrival.burstMultiplier);
    hash = mixHashDouble(hash, serve.arrival.diurnalPeriodMs);
    hash = mixHashDouble(hash, serve.arrival.diurnalAmplitude);
    hash = mixHash(hash, static_cast<std::uint64_t>(serve.admission.maxDepth));
    hash = mixHash(hash,
                   static_cast<std::uint64_t>(serve.admission.degradeDepth));

    const SharedInfraConfig &infra = config.infra;
    hash = mixHashDouble(hash, infra.edgeCapacity);
    hash = mixHashDouble(hash, infra.wifiCapacity);
    hash = mixHashDouble(hash, infra.contention);
    hash = mixHashDouble(hash, infra.brownoutPeriodMs);
    hash = mixHashDouble(hash, infra.brownoutDurationMs);
    hash = mixHashDouble(hash, infra.brownoutSlowdown);
    hash = mixHashDouble(hash, infra.outagePeriodMs);
    hash = mixHashDouble(hash, infra.outageDurationMs);

    const ChurnConfig &churn = config.churn;
    hash = mixHashDouble(hash, churn.crashProb);
    hash = mixHashDouble(hash, churn.leaveProb);
    hash = mixHash(hash, static_cast<std::uint64_t>(churn.downEpochs));
    hash = mixHash(hash, static_cast<std::uint64_t>(churn.initialDevices));
    hash = mixHash(hash, static_cast<std::uint64_t>(churn.joinEveryEpochs));
    return hash;
}

std::string
encodeFleetManifest(const FleetManifest &manifest)
{
    return sealCheckpoint([&](std::ostream &body) {
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
    });
}

bool
decodeFleetManifest(const std::string &bytes, FleetManifest *out,
                    std::string *error)
{
    std::string ignored;
    if (error == nullptr) {
        error = &ignored;
    }
    std::istringstream is;
    if (!openCheckpoint(bytes, "fleet manifest", &is, error)) {
        return false;
    }
    std::string magic;
    std::string version;
    std::string configHex;
    std::string stateHex;
    FleetManifest manifest;
    if (!(is >> magic >> version >> configHex >> manifest.epoch
          >> stateHex)) {
        *error = "malformed fleet manifest header";
        return false;
    }
    if (magic != kMagic || version != kVersion) {
        *error = "not an " + std::string(kMagic) + " " + kVersion + " file";
        return false;
    }
    if (manifest.epoch < 0) {
        *error = "negative epoch in fleet manifest header";
        return false;
    }
    if (!parseHex64(configHex, &manifest.configDigest)
        || !parseHex64(stateHex, &manifest.stateDigest)) {
        *error = "unparseable digest in fleet manifest header";
        return false;
    }

    std::string key;
    if (!(is >> key) || key != "devices"
        || !(is >> manifest.devices) || manifest.devices < 1) {
        *error = "malformed devices line in fleet manifest";
        return false;
    }
    if (!(is >> key) || key != "churn" || !(is >> manifest.churnState)) {
        *error = "malformed churn line in fleet manifest";
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
        *error = "missing qtable section in fleet manifest";
        return false;
    }

    // Either "-" (no table) or QTable::save text (dims then values).
    const std::streampos section = is.tellg();
    if (!(is >> token)) {
        *error = "truncated qtable section in fleet manifest";
        return false;
    }
    if (token != "-") {
        is.seekg(section);
        if (!core::QTable::parse(is, &manifest.table, error)) {
            *error = "invalid Q-table in fleet manifest: " + *error;
            return false;
        }
        manifest.hasTable = true;
    }

    if (out != nullptr) {
        *out = std::move(manifest);
    }
    return true;
}

} // namespace autoscale::serve
