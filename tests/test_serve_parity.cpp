/**
 * @file
 * Parity suite for the serve loop (DESIGN.md §14): across devices ×
 * fault presets × load levels, the loop over the precomputed cost
 * cache must reproduce the --direct cost-table bypass bit for bit —
 * serving statistics, trace bytes, metrics dumps, checkpoint bytes and
 * post-run RNG fingerprints — and match the pinned digests of its
 * exports.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_injector.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "platform/device_zoo.h"
#include "serve/server.h"
#include "sim/simulator.h"

namespace autoscale::serve {
namespace {

/** Everything one mode's run exports. */
struct RunArtifacts {
    ServeStats stats;
    std::string traceJsonl;
    std::string metricsText;
};

ServeConfig
parityConfig(const std::string &faultPreset, double rateX,
             std::int64_t requests)
{
    ServeConfig config;
    config.scenario = env::ScenarioId::D3;
    config.faults = fault::FaultPlan::fromName(faultPreset);
    config.totalRequests = requests;
    config.trainRunsPerCombo = 5;
    config.seed = 23;
    // Absolute rate (device-independent here; parity needs identical
    // arrivals within one device, not comparable load across devices).
    config.arrival.ratePerSec = rateX * 50.0;
    return config;
}

/** FNV-1a 64: a stable digest for pinning exported bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/**
 * One run's exports, pinned: FNV-1a digests of the trace JSONL and the
 * metrics text, plus the post-run RNG fingerprint. The pins were
 * recorded at commit 328ed89, where the scalar reference loop, the
 * batched gather/commit loop at every batch size and --direct all
 * still agreed, so they hold the one serve loop that replaced both to
 * the same bytes.
 */
struct ExportPin {
    std::uint64_t trace;
    std::uint64_t metrics;
    std::uint64_t rngFingerprint;
};

void
expectMatchesPin(const RunArtifacts &run, const ExportPin &pin,
                 const std::string &label)
{
    EXPECT_EQ(fnv1a(run.traceJsonl), pin.trace) << label;
    EXPECT_EQ(fnv1a(run.metricsText), pin.metrics) << label;
    EXPECT_EQ(run.stats.rngFingerprint, pin.rngFingerprint) << label;
}

/** Devices are move-only (unique_ptr processors), so modes get a
 * fresh one from a factory instead of sharing a copied instance. */
using DeviceFactory = platform::Device (*)();

RunArtifacts
runWith(DeviceFactory makeDevice, const ServeConfig &config,
        bool useCostCache, bool tracing = true)
{
    sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(makeDevice());
    sim.setUseCostCache(useCostCache);

    obs::MetricsRegistry metrics;
    obs::TraceRecorder trace;
    obs::ObsContext obs;
    obs.metrics = &metrics;
    if (tracing) {
        obs.trace = &trace;
    }

    RunArtifacts artifacts;
    artifacts.stats = runServe(sim, config, obs);
    std::ostringstream traceOs;
    trace.writeJsonl(traceOs);
    artifacts.traceJsonl = traceOs.str();
    std::ostringstream metricsOs;
    metrics.writeText(metricsOs);
    artifacts.metricsText = metricsOs.str();
    return artifacts;
}

/** Bitwise comparison of every ServeStats field two modes can differ
 * in (EXPECT_EQ on doubles is exact, which is the contract). */
void
expectStatsEqual(const ServeStats &a, const ServeStats &b,
                 const std::string &label)
{
    SCOPED_TRACE(label);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.shedDeadline, b.shedDeadline);
    EXPECT_EQ(a.shedOverflow, b.shedOverflow);
    EXPECT_EQ(a.shedStale, b.shedStale);
    EXPECT_EQ(a.qosViolations, b.qosViolations);
    EXPECT_EQ(a.accuracyViolations, b.accuracyViolations);
    EXPECT_EQ(a.faultFallbacks, b.faultFallbacks);
    EXPECT_EQ(a.breakerShortCircuits, b.breakerShortCircuits);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.wastedEnergyJ, b.wastedEnergyJ);
    EXPECT_EQ(a.totalWaitMs, b.totalWaitMs);
    EXPECT_EQ(a.totalServiceMs, b.totalServiceMs);
    EXPECT_EQ(a.latenciesMs, b.latenciesMs);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.endClockMs, b.endClockMs);
    EXPECT_EQ(a.categoryCounts, b.categoryCounts);
    EXPECT_EQ(a.rngFingerprint, b.rngFingerprint);
}

void
expectArtifactsEqual(const RunArtifacts &a, const RunArtifacts &b,
                     const std::string &label)
{
    expectStatsEqual(a.stats, b.stats, label);
    EXPECT_EQ(a.traceJsonl, b.traceJsonl) << label;
    EXPECT_EQ(a.metricsText, b.metricsText) << label;
}

/**
 * The full sweep: for each (device, fault preset) cell, the cost-cache
 * run must match its pins and --direct must reproduce it bit for bit.
 */
TEST(ServeParity, AllModesBitIdenticalAcrossDevicesAndFaults)
{
    struct DeviceCase {
        const char *name;
        DeviceFactory factory;
    };
    const std::vector<DeviceCase> devices = {
        {"Mi8Pro", &platform::makeMi8Pro},
        {"GalaxyS10e", &platform::makeGalaxyS10e},
        {"MotoXForce", &platform::makeMotoXForce},
    };
    const std::vector<const char *> faultPresets = {
        "none", "blackout", "flaky-wifi", "cloud-brownout"};
    // Device-major, fault presets in the order above.
    const std::vector<ExportPin> pins = {
        {0x1bb1ab953a0153c9ULL, 0xc4783b6ac9ff07ddULL, 0xf6cd4f9e82282cf9ULL},
        {0x1bb1ab953a0153c9ULL, 0xc4783b6ac9ff07ddULL, 0xf6cd4f9e82282cf9ULL},
        {0x635209438a7fdde4ULL, 0xc816ecb1b9cba7dfULL, 0xf6cd4f9e82282cf9ULL},
        {0x1bb1ab953a0153c9ULL, 0xc4783b6ac9ff07ddULL, 0xf6cd4f9e82282cf9ULL},
        {0xf52358d2a84203a5ULL, 0xda2e21b60a09a56dULL, 0xd71d413ef6faf012ULL},
        {0xf52358d2a84203a5ULL, 0xda2e21b60a09a56dULL, 0xd71d413ef6faf012ULL},
        {0xfab5492f918d0de9ULL, 0xfde658c4172e4cedULL, 0x71ec16d7242b76e8ULL},
        {0xf52358d2a84203a5ULL, 0xda2e21b60a09a56dULL, 0xd71d413ef6faf012ULL},
        {0x09b3fed5c85369a2ULL, 0x2ac6793ada470e6cULL, 0x63b6063313a9a329ULL},
        {0x09b3fed5c85369a2ULL, 0x2ac6793ada470e6cULL, 0x63b6063313a9a329ULL},
        {0xd7e6b6622d668e00ULL, 0xafc5a22017329f6cULL, 0x63b6063313a9a329ULL},
        {0x09b3fed5c85369a2ULL, 0x2ac6793ada470e6cULL, 0x63b6063313a9a329ULL},
    };
    ASSERT_EQ(pins.size(), devices.size() * faultPresets.size());

    std::size_t cell = 0;
    for (const DeviceCase &device : devices) {
        for (const char *preset : faultPresets) {
            const ServeConfig config = parityConfig(preset, 2.0, 150);
            const RunArtifacts cached =
                runWith(device.factory, config, true);
            const std::string label =
                std::string(device.name) + "/" + preset;
            expectMatchesPin(cached, pins[cell++], label);
            expectArtifactsEqual(cached,
                                 runWith(device.factory, config, false),
                                 label + "/direct");
        }
    }
}

/** Overloaded, remote-heavy flaky-wifi serving: sheds and degrades. */
ServeConfig
overloadConfig()
{
    ServeConfig config = parityConfig("flaky-wifi", 6.0, 300);
    config.admission.maxDepth = 16;
    // Remote-heavy traffic plus a hair-trigger degrade threshold
    // guarantees the ladder fires (queue pressure only downgrades
    // remote/partitioned picks).
    config.admission.degradeDepth = 1;
    config.policyName = "cloud";
    return config;
}

/**
 * Overload pressure exercises shedding at admission, stale re-checks
 * at dequeue, the degradation ladder, and deep queues with admissions
 * arriving between commits.
 */
TEST(ServeParity, OverloadWithSheddingAndDegradation)
{
    const ServeConfig config = overloadConfig();
    const RunArtifacts cached =
        runWith(&platform::makeMi8Pro, config, true);
    EXPECT_GT(cached.stats.shedOverflow + cached.stats.shedDeadline
                  + cached.stats.shedStale,
              0);
    EXPECT_GT(cached.stats.degraded, 0);
    expectArtifactsEqual(cached,
                         runWith(&platform::makeMi8Pro, config, false),
                         "overload/direct");
}

/**
 * The overload run's exported bytes, pinned. The digests were recorded
 * at commit f8cb7f9, where the scalar and batched loops each had their
 * own metrics recorder (both agreed), so they hold the one remaining
 * recorder and loop to the same bytes. A metering-only run builds no trace
 * events at all and must still export the same metrics.
 */
TEST(ServeParity, OverloadExportsMatchPinnedDigests)
{
    const ServeConfig config = overloadConfig();
    const RunArtifacts traced =
        runWith(&platform::makeMi8Pro, config, true);
    EXPECT_EQ(traced.stats.served, 45);
    EXPECT_EQ(traced.stats.degraded, 45);
    EXPECT_EQ(fnv1a(traced.metricsText), 0x4878c5142d35b9dfULL);
    EXPECT_EQ(fnv1a(traced.traceJsonl), 0xf5fe24118194bceaULL);
    const RunArtifacts metered =
        runWith(&platform::makeMi8Pro, config, true, false);
    EXPECT_TRUE(metered.traceJsonl.empty());
    EXPECT_EQ(metered.metricsText, traced.metricsText);
}

/**
 * A light load serves most arrivals, so the learner's exploration
 * reaches infeasible picks and the commit's infeasible-fallback site,
 * which the overloaded cells above, shedding most arrivals, never
 * reach. The pins were recorded at commit 604f2b5, where the scalar
 * loop, batch sizes 1 and 64 and --direct all exported these bytes.
 */
TEST(ServeParity, InfeasibleFallbackMatchesPinnedDigests)
{
    const ServeConfig config = parityConfig("flaky-wifi", 0.1, 400);
    const RunArtifacts cached =
        runWith(&platform::makeMi8Pro, config, true);
    EXPECT_EQ(cached.stats.served, 217);
    EXPECT_NE(cached.traceJsonl.find("\"fallback\":true"),
              std::string::npos);
    expectMatchesPin(cached,
                     {0x53a16b309cb2489fULL, 0x3a6f1d18071260dbULL,
                      0xdb9455c9503e8a55ULL},
                     "light-load");
    expectArtifactsEqual(cached,
                         runWith(&platform::makeMi8Pro, config, false),
                         "light-load/direct");
}

/** Fixed baselines share the serving loop; parity must hold without a
 * learner (no Q-table, no checkpointing) too. */
TEST(ServeParity, FixedPolicyModesMatch)
{
    ServeConfig config = parityConfig("cloud-brownout", 2.0, 120);
    config.policyName = "cloud";
    config.trainRunsPerCombo = 0;
    const RunArtifacts cached =
        runWith(&platform::makeMi8Pro, config, true);
    expectMatchesPin(cached,
                     {0x6226632b34f22e3dULL, 0x79314d78e31bfdbeULL,
                      0x784663441c31f1f6ULL},
                     "cloud-policy");
    expectArtifactsEqual(cached,
                         runWith(&platform::makeMi8Pro, config, false),
                         "cloud-policy/direct");
}

/** Checkpoint artifacts are mode-independent too: the final checkpoint
 * a cost-cache run writes is byte-identical to the --direct run's. */
TEST(ServeParity, CheckpointBytesMatchAcrossModes)
{
    ServeConfig config = parityConfig("none", 2.0, 120);
    config.checkpointIntervalRequests = 40;
    std::vector<std::string> bytes;
    std::vector<std::int64_t> written;
    for (const bool useCostCache : {true, false}) {
        config.checkpointPath = testing::TempDir() + "/serve_parity_"
            + (useCostCache ? "cached" : "direct") + ".ckpt";
        sim::InferenceSimulator sim =
            sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
        sim.setUseCostCache(useCostCache);
        written.push_back(runServe(sim, config).checkpointsWritten);
        std::ifstream in(config.checkpointPath, std::ios::binary);
        ASSERT_TRUE(in.good());
        std::stringstream contents;
        contents << in.rdbuf();
        bytes.push_back(contents.str());
        std::remove(config.checkpointPath.c_str());
    }
    EXPECT_EQ(written[0], written[1]);
    EXPECT_EQ(bytes[0], bytes[1]);
    EXPECT_EQ(fnv1a(bytes[0]), 0x1f1effb670e03350ULL);
}

/** The fingerprint must actually detect stream divergence: different
 * seeds must not collide (a smoke test that it hashes real draws). */
TEST(ServeParity, FingerprintDiscriminatesSeeds)
{
    ServeConfig config = parityConfig("none", 2.0, 60);
    config.trainRunsPerCombo = 0;
    sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const ServeStats a = runServe(sim, config);
    config.seed = 24;
    const ServeStats b = runServe(sim, config);
    EXPECT_NE(a.rngFingerprint, b.rngFingerprint);
}

} // namespace
} // namespace autoscale::serve
