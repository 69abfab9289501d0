/**
 * @file
 * Tests for fleet serving (DESIGN.md §15): fleet-of-1 equivalence to
 * the single-device loop, shard/jobs output invariance, contention
 * effects (edge saturation pushing marginal devices local), shared
 * brownout windows hitting every device in the same epoch, and the
 * visit-weighted federated Q-table merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "dnn/model_zoo.h"
#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "platform/device_zoo.h"
#include "serve/device_state.h"
#include "serve/fleet.h"
#include "serve/server.h"
#include "sim/simulator.h"

// ThreadSanitizer's shadow memory counts toward the RSS the memory
// gates measure (several KB per device), so under TSan those gates
// check everything but the bytes per device.
#if defined(__SANITIZE_THREAD__)
#define AUTOSCALE_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AUTOSCALE_TSAN_BUILD 1
#endif
#endif

namespace autoscale::serve {
namespace {

#ifdef AUTOSCALE_TSAN_BUILD
constexpr bool kThreadSanitizer = true;
#else
constexpr bool kThreadSanitizer = false;
#endif

const sim::InferenceSimulator &
testSim()
{
    static const sim::InferenceSimulator sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    return sim;
}

std::vector<const dnn::Network *>
allNetworks()
{
    std::vector<const dnn::Network *> networks;
    for (const dnn::Network &network : dnn::modelZoo()) {
        networks.push_back(&network);
    }
    return networks;
}

std::string
fileBytes(const char *path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
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

/** What a fleet run exports, digested. */
struct FleetDigests {
    std::uint64_t checksum;
    std::uint64_t qtables;
    std::uint64_t trace;
    std::uint64_t metrics;

    bool operator==(const FleetDigests &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const FleetDigests &d)
{
    return os << std::hex << std::showbase << "{checksum " << d.checksum
              << ", qtables " << d.qtables << ", trace " << d.trace
              << ", metrics " << d.metrics << "}" << std::dec;
}

/** Small-but-real serve config at @p rateX times local capacity. */
ServeConfig
serveConfig(double rateX, std::int64_t requests)
{
    ServeConfig config;
    config.totalRequests = requests;
    config.trainRunsPerCombo = 5;
    config.seed = 11;
    const double nominal =
        nominalServiceMs(testSim(), allNetworks(), 50.0);
    config.arrival.ratePerSec = rateX * 1000.0 / nominal;
    return config;
}

void
expectStatsBitIdentical(const ServeStats &a, const ServeStats &b)
{
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.shedOverflow, b.shedOverflow);
    EXPECT_EQ(a.shedDeadline, b.shedDeadline);
    EXPECT_EQ(a.shedStale, b.shedStale);
    EXPECT_EQ(a.qosViolations, b.qosViolations);
    EXPECT_EQ(a.accuracyViolations, b.accuracyViolations);
    EXPECT_EQ(a.faultFallbacks, b.faultFallbacks);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    // Bitwise float equality: the fleet path must replay the exact
    // arithmetic, not approximate it.
    EXPECT_EQ(a.totalWaitMs, b.totalWaitMs);
    EXPECT_EQ(a.totalServiceMs, b.totalServiceMs);
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.wastedEnergyJ, b.wastedEnergyJ);
    EXPECT_EQ(a.endClockMs, b.endClockMs);
    EXPECT_EQ(a.latenciesMs, b.latenciesMs);
    EXPECT_EQ(a.categoryCounts, b.categoryCounts);
    EXPECT_EQ(a.rngFingerprint, b.rngFingerprint);
}

TEST(Fleet, FleetOfOneMatchesRunServe)
{
    const ServeConfig config = serveConfig(1.5, 120);

    obs::TraceRecorder soloTrace(true);
    obs::MetricsRegistry soloMetrics;
    const ServeStats solo = runServe(
        testSim(), config, obs::ObsContext{&soloTrace, &soloMetrics});

    FleetConfig fleet;
    fleet.serve = config;
    fleet.devices = 1;
    obs::TraceRecorder fleetTrace(true);
    obs::MetricsRegistry fleetMetrics;
    const FleetStats stats = runFleet(
        testSim(), fleet, obs::ObsContext{&fleetTrace, &fleetMetrics});

    ASSERT_EQ(stats.devices.size(), 1u);
    expectStatsBitIdentical(solo, stats.devices[0]);

    // Metrics flushed from the fleet's pooled block must reproduce the
    // single-device dump byte for byte. (Traces differ only by the
    // deliberate fleet fields on each event.)
    std::ostringstream soloText;
    soloMetrics.writeText(soloText);
    std::ostringstream fleetText;
    fleetMetrics.writeText(fleetText);
    EXPECT_EQ(soloText.str(), fleetText.str());
    EXPECT_EQ(soloTrace.size(), fleetTrace.size());
}

TEST(Fleet, ShardAndJobsInvariance)
{
    FleetConfig fleet;
    fleet.serve = serveConfig(1.5, 40);
    fleet.devices = 12;
    fleet.qMode = QTableMode::Federated;
    fleet.federatedMergeEpochs = 2;
    fleet.collectQTables = true;
    fleet.infra.edgeCapacity = 1.0;
    fleet.infra.contention = 4.0;
    fleet.infra.brownoutPeriodMs = 1000.0;
    fleet.infra.brownoutDurationMs = 250.0;

    // A shared table under churn: shard workers read one base
    // concurrently (the TSan job runs this test), and devices rejoin
    // with the table they left with.
    FleetConfig churned = fleet;
    churned.serve = serveConfig(1.5, 150);
    churned.qMode = QTableMode::Shared;
    churned.churn.crashProb = 0.10;
    churned.churn.leaveProb = 0.05;
    churned.churn.downEpochs = 2;
    churned.churn.initialDevices = 8;

    // A fixed-policy fleet under churn: shard workers serve through
    // the connected-edge baseline's offline picks while devices crash,
    // leave and rejoin.
    FleetConfig fixedChurned = churned;
    fixedChurned.serve.policyName = "connected-edge";
    fixedChurned.serve.trainRunsPerCombo = 0;
    fixedChurned.qMode = QTableMode::PerDevice;

    auto run = [](const FleetConfig &shape, int shards, int jobs) {
        FleetConfig config = shape;
        config.shards = shards;
        config.jobs = jobs;
        obs::TraceRecorder trace(true);
        obs::MetricsRegistry metrics;
        const FleetStats stats = runFleet(
            testSim(), config, obs::ObsContext{&trace, &metrics});
        std::ostringstream traceText;
        trace.writeJsonl(traceText);
        std::ostringstream metricsText;
        metrics.writeText(metricsText);
        return std::make_tuple(stats.checksum, stats.qtableDump,
                               traceText.str(), metricsText.str(),
                               stats.epochs, stats.churnRejoins);
    };

    for (const FleetConfig *config : {&fleet, &churned, &fixedChurned}) {
        SCOPED_TRACE(std::string(qTableModeName(config->qMode)) + " "
                     + config->serve.policyName);
        const auto base = run(*config, 1, 1);
        const auto sharded = run(*config, 4, 4);
        const auto odd = run(*config, 5, 2);
        EXPECT_EQ(base, sharded);
        EXPECT_EQ(base, odd);
        if (config->churn.enabled()) {
            EXPECT_GT(std::get<5>(base), 0);
        }
    }

    // Above kDevicesPerShard x shards the fleet derives its own
    // partition: 2,500 devices run as 3, 4 and 7 shards below, and the
    // shard tasks also build, finish and free the devices. Outputs are
    // digested, and every device's stats compared.
    FleetConfig large;
    large.serve = serveConfig(1.0, 20);
    large.serve.policyName = "connected-edge";
    large.serve.trainRunsPerCombo = 0;
    large.devices = 2500;
    large.epochMs = 50.0;
    large.infra.edgeCapacity = 1500.0;
    large.churn.crashProb = 0.05;
    large.churn.leaveProb = 0.02;
    large.churn.downEpochs = 2;
    large.churn.initialDevices = 2000;

    // 1,500 shared learners: peers warm-start from device 0's table on
    // several workers at once. A full Q-dump would be ~2.4 MB per
    // device, so the final fleet manifest (the merged table and every
    // device's state digest) stands in for it.
    FleetConfig learners;
    learners.serve = serveConfig(0.5, 6);
    learners.devices = 1500;
    learners.qMode = QTableMode::Shared;
    learners.serve.checkpointPath = "fleet_large_learners.ckpt";
    learners.checkpointEveryEpochs = 1 << 20;

    struct Digested {
        FleetDigests digests;
        FleetStats stats;
    };
    auto digest = [](const FleetConfig &shape, int shards, int jobs) {
        FleetConfig config = shape;
        config.shards = shards;
        config.jobs = jobs;
        Digested out;
        obs::TraceRecorder trace(true);
        obs::MetricsRegistry metrics;
        out.stats = runFleet(testSim(), config,
                             obs::ObsContext{&trace, &metrics});
        std::ostringstream traceText;
        trace.writeJsonl(traceText);
        std::ostringstream metricsText;
        metrics.writeText(metricsText);
        const char *manifest = config.serve.checkpointPath.c_str();
        out.digests = {out.stats.checksum,
                       fnv1a(out.stats.qtableDump + fileBytes(manifest)),
                       fnv1a(traceText.str()), fnv1a(metricsText.str())};
        std::remove(manifest);
        std::remove((config.serve.checkpointPath + ".prev").c_str());
        return out;
    };
    auto expectSame = [](const Digested &a, const Digested &b) {
        EXPECT_EQ(a.digests, b.digests);
        EXPECT_EQ(a.stats.epochs, b.stats.epochs);
        EXPECT_EQ(a.stats.churnRejoins, b.stats.churnRejoins);
        ASSERT_EQ(a.stats.devices.size(), b.stats.devices.size());
        for (std::size_t d = 0; d < a.stats.devices.size(); ++d) {
            SCOPED_TRACE("device " + std::to_string(d));
            expectStatsBitIdentical(a.stats.devices[d], b.stats.devices[d]);
        }
    };
    {
        SCOPED_TRACE("2,500 connected-edge devices with churn");
        FleetConfig probe = large;
        probe.shards = 7;
        EXPECT_EQ(fleetShardCount(probe), 7u);
        probe.shards = 1;
        EXPECT_EQ(fleetShardCount(probe), 3u);
        const Digested base = digest(large, 1, 1);
        EXPECT_EQ(base.stats.devices.size(), 2500u);
        EXPECT_GT(base.stats.churnRejoins, 0);
        expectSame(base, digest(large, 4, 4));
        expectSame(base, digest(large, 7, 3));
    }
    {
        SCOPED_TRACE("1,500 shared learners");
        const Digested base = digest(learners, 4, 1);
        EXPECT_EQ(base.stats.checkpointsWritten, 1);
        expectSame(base, digest(learners, 4, 4));
    }
}

TEST(Fleet, EdgeSaturationPushesMarginalDevicesLocal)
{
    FleetConfig fleet;
    // Below local capacity so the uncontended fleet serves comfortably;
    // any extra shedding in the tight fleet is the contention's doing.
    fleet.serve = serveConfig(0.6, 60);
    // A remote-only policy makes every served request want the shared
    // edge; saturation must inflate service, build queues, and trip the
    // degradation ladder onto the local fallback.
    fleet.serve.policyName = "connected-edge";
    fleet.devices = 8;

    FleetConfig tight = fleet;
    tight.infra.edgeCapacity = 1.0;
    tight.infra.contention = 8.0;

    FleetConfig loose = fleet;
    loose.infra.edgeCapacity = 64.0;
    loose.infra.contention = 1.0;

    const FleetStats contended = runFleet(testSim(), tight, {});
    const FleetStats uncontended = runFleet(testSim(), loose, {});

    EXPECT_GT(contended.maxEdgeQueueMs, 0.0);
    EXPECT_EQ(uncontended.maxEdgeQueueMs, 0.0);
    // Queue pressure under saturation shifts the admission share: more
    // requests get degraded onto the local device (or shed) than in
    // the uncontended fleet.
    EXPECT_GT(contended.aggregate.degraded + contended.aggregate.shed,
              uncontended.aggregate.degraded + uncontended.aggregate.shed);
    // And the requests that do reach the edge pay the queue wait: mean
    // served latency inflates under saturation.
    double tightServiceMs = 0.0;
    std::int64_t tightServed = 0;
    double looseServiceMs = 0.0;
    std::int64_t looseServed = 0;
    for (const ServeStats &stats : contended.devices) {
        tightServiceMs += stats.totalServiceMs;
        tightServed += stats.served;
    }
    for (const ServeStats &stats : uncontended.devices) {
        looseServiceMs += stats.totalServiceMs;
        looseServed += stats.served;
    }
    ASSERT_GT(tightServed, 0);
    ASSERT_GT(looseServed, 0);
    EXPECT_GT(tightServiceMs / static_cast<double>(tightServed),
              looseServiceMs / static_cast<double>(looseServed));
}

TEST(Fleet, BrownoutHitsAllDevicesInTheSameEpoch)
{
    FleetConfig fleet;
    fleet.serve = serveConfig(0.8, 60);
    fleet.serve.policyName = "cloud";
    fleet.devices = 4;
    fleet.epochMs = 200.0;
    fleet.infra.brownoutPeriodMs = 400.0;
    fleet.infra.brownoutDurationMs = 200.0;
    fleet.infra.brownoutSlowdown = 4.0;

    obs::TraceRecorder trace(true);
    const FleetStats stats =
        runFleet(testSim(), fleet, obs::ObsContext{&trace, nullptr});
    EXPECT_GT(stats.brownoutEpochs, 0);
    EXPECT_GT(stats.brownoutWindows, 0);

    // Cloud-served (non-fallback) events within one epoch must agree on
    // the brownout flag: the window lives in fleet virtual time, not in
    // any per-device stream.
    std::map<long long, std::set<bool>> flagsByEpoch;
    std::map<long long, std::set<int>> brownoutDevices;
    for (const obs::DecisionEvent &event : trace.snapshot()) {
        if (event.serveOutcome != "served" || event.category != "Cloud"
            || event.faultFallback || !event.feasible) {
            continue;
        }
        ASSERT_GE(event.deviceId, 0);
        flagsByEpoch[event.fleetEpoch].insert(event.fleetBrownout);
        if (event.fleetBrownout) {
            brownoutDevices[event.fleetEpoch].insert(event.deviceId);
        }
    }
    ASSERT_FALSE(flagsByEpoch.empty());
    for (const auto &[epoch, flags] : flagsByEpoch) {
        EXPECT_EQ(flags.size(), 1u)
            << "brownout flag split within epoch " << epoch;
    }
    // At least one brownout epoch touched several devices at once.
    std::size_t widest = 0;
    for (const auto &[epoch, devices] : brownoutDevices) {
        widest = std::max(widest, devices.size());
    }
    EXPECT_GE(widest, 2u);
}

TEST(Fleet, FederatedMergeWithZeroVisitPeersIsANoOp)
{
    const sim::InferenceSimulator &sim = testSim();
    core::AutoScaleScheduler trained(sim, {}, 1);
    core::AutoScaleScheduler idleB(sim, {}, 2);
    core::AutoScaleScheduler idleC(sim, {}, 3);

    // Give the trained peer real experience at a few cells.
    const int numActions = trained.agent().table().numActions();
    for (int step = 0; step < 200; ++step) {
        const int state = step % 7;
        const int action = step % numActions;
        trained.mutableAgent().update(state, action, 0.25 * step, state);
    }
    const core::QTable before = trained.agent().table();
    const core::QTable beforeB = idleB.agent().table();

    mergeQTablesVisitWeighted({&trained, &idleB, &idleC});

    const core::QTable &after = trained.agent().table();
    const core::QTable &afterB = idleB.agent().table();
    const int numStates = before.numStates();
    for (int s = 0; s < numStates; ++s) {
        for (int a = 0; a < numActions; ++a) {
            // Zero-visit peers contribute nothing: the trained table is
            // bitwise untouched everywhere.
            EXPECT_EQ(before.at(s, a), after.at(s, a))
                << "trained table perturbed at (" << s << "," << a << ")";
            if (trained.agent().visitCount(s, a) > 0) {
                // Visited cells propagate the trained value to peers.
                EXPECT_EQ(afterB.at(s, a), before.at(s, a));
            } else {
                // Unvisited cells leave peers untouched.
                EXPECT_EQ(afterB.at(s, a), beforeB.at(s, a));
            }
        }
    }
}

TEST(Fleet, ChurnIsShardInvariantAndCountsLoss)
{
    // DESIGN.md §17: churn draws are pure functions of
    // (masterSeed, deviceIndex, epoch), so crash/leave/join schedules —
    // and every byte they influence — must not move when the fleet is
    // re-sharded.
    FleetConfig fleet;
    fleet.serve = serveConfig(1.5, 150);
    fleet.devices = 8;
    fleet.qMode = QTableMode::Shared;
    fleet.collectQTables = true;
    fleet.churn.crashProb = 0.10;
    fleet.churn.leaveProb = 0.05;
    fleet.churn.downEpochs = 2;
    fleet.churn.initialDevices = 3;
    fleet.churn.joinEveryEpochs = 1;
    fleet.infra.outagePeriodMs = 1000.0;
    fleet.infra.outageDurationMs = 250.0;

    auto run = [&](int shards, int jobs) {
        FleetConfig config = fleet;
        config.shards = shards;
        config.jobs = jobs;
        obs::TraceRecorder trace(true);
        obs::MetricsRegistry metrics;
        const FleetStats stats = runFleet(
            testSim(), config, obs::ObsContext{&trace, &metrics});
        std::ostringstream traceText;
        trace.writeJsonl(traceText);
        std::ostringstream metricsText;
        metrics.writeText(metricsText);
        return std::make_tuple(stats.checksum, stats.qtableDump,
                               traceText.str(), metricsText.str(),
                               stats.epochs, stats.churnCrashes,
                               stats.churnLeaves, stats.churnRejoins,
                               stats.aggregate.shedChurn);
    };

    const auto base = run(1, 1);
    const auto sharded = run(4, 4);
    const auto odd = run(5, 2);
    EXPECT_EQ(base, sharded);
    EXPECT_EQ(base, odd);

    // The schedule above is violent enough that the run must actually
    // exercise churn: devices crash or leave, go offline, lose work.
    const FleetStats probeStats = [&] {
        FleetConfig config = fleet;
        return runFleet(testSim(), config, {});
    }();
    EXPECT_GT(probeStats.churnCrashes + probeStats.churnLeaves, 0);
    EXPECT_GT(probeStats.offlineDeviceEpochs, 0);
    EXPECT_GT(probeStats.aggregate.shedChurn, 0);
    EXPECT_GT(probeStats.churnJoins, 0);
    EXPECT_GT(probeStats.outageEpochs, 0);
    // Conservation: every arrival is accounted for — served, shed by
    // QoS machinery, or lost to churn. (aggregate.shed deliberately
    // excludes churn so the classic "shed" row keeps its meaning.)
    EXPECT_EQ(probeStats.aggregate.arrivals,
              probeStats.aggregate.served + probeStats.aggregate.shed
                  + probeStats.aggregate.shedChurn);
}

TEST(Fleet, HaltThenResumeMatchesUninterruptedByteForByte)
{
    // Checkpoint-verified deterministic replay (fleet_checkpoint.h):
    // crash at an epoch barrier (simulated via haltAfterEpochs), resume
    // from the manifest, and the completed run's trace, metrics, and
    // Q-tables must equal the uninterrupted run's byte for byte.
    const char *path = "fleet_unit.ckpt";
    std::remove(path);
    std::remove("fleet_unit.ckpt.prev");

    FleetConfig fleet;
    fleet.serve = serveConfig(2.0, 200);
    fleet.devices = 4;
    fleet.qMode = QTableMode::Shared;
    fleet.collectQTables = true;
    fleet.churn.crashProb = 0.08;
    fleet.churn.downEpochs = 2;

    auto run = [&](bool checkpoint, bool resume, int haltAfter) {
        FleetConfig config = fleet;
        if (checkpoint) {
            config.serve.checkpointPath = path;
        }
        config.serve.resume = resume;
        config.haltAfterEpochs = haltAfter;
        obs::TraceRecorder trace(true);
        obs::MetricsRegistry metrics;
        const FleetStats stats = runFleet(
            testSim(), config, obs::ObsContext{&trace, &metrics});
        std::ostringstream traceText;
        trace.writeJsonl(traceText);
        std::ostringstream metricsText;
        metrics.writeText(metricsText);
        return std::make_tuple(stats, traceText.str(), metricsText.str());
    };

    const auto [baseStats, baseTrace, baseMetrics] = run(false, false, 0);
    ASSERT_GT(baseStats.epochs, 3);

    const auto [haltStats, haltTrace, haltMetrics] = run(true, false, 2);
    EXPECT_TRUE(haltStats.halted);
    EXPECT_EQ(haltStats.epochs, 2);
    EXPECT_GT(haltStats.checkpointsWritten, 0);
    // A halted run exports nothing (the simulated process died).
    EXPECT_TRUE(haltTrace.empty());

    const auto [resStats, resTrace, resMetrics] = run(true, true, 0);
    EXPECT_TRUE(resStats.resumed);
    EXPECT_EQ(resStats.resumeEpoch, 1);
    EXPECT_FALSE(resStats.halted);
    EXPECT_EQ(resStats.checksum, baseStats.checksum);
    EXPECT_EQ(resStats.qtableDump, baseStats.qtableDump);
    EXPECT_EQ(resStats.epochs, baseStats.epochs);
    EXPECT_EQ(resTrace, baseTrace);
    EXPECT_EQ(resMetrics, baseMetrics);

    std::remove(path);
    std::remove("fleet_unit.ckpt.prev");
}

TEST(Fleet, MergedQTableSnapshotEqualsInPlaceMerge)
{
    const sim::InferenceSimulator &sim = testSim();
    core::AutoScaleScheduler a(sim, {}, 1);
    core::AutoScaleScheduler b(sim, {}, 2);
    const int numActions = a.agent().table().numActions();
    for (int step = 0; step < 150; ++step) {
        a.mutableAgent().update(step % 5, step % numActions,
                                0.5 * step, step % 5);
        b.mutableAgent().update(step % 9, (step + 1) % numActions,
                                -0.25 * step, step % 9);
    }

    // The snapshot is computed first (it must not mutate anything),
    // then compared against the authoritative in-place merge.
    const core::QTable beforeA = a.agent().table();
    const core::QTable snapshot = mergedQTableSnapshot({&a, &b});
    const int numStates = beforeA.numStates();
    for (int s = 0; s < numStates; ++s) {
        for (int act = 0; act < numActions; ++act) {
            ASSERT_EQ(a.agent().table().at(s, act), beforeA.at(s, act))
                << "snapshot mutated a source table";
        }
    }
    mergeQTablesVisitWeighted({&a, &b});
    for (int s = 0; s < numStates; ++s) {
        for (int act = 0; act < numActions; ++act) {
            EXPECT_EQ(snapshot.at(s, act), a.agent().table().at(s, act))
                << "snapshot diverges from merge at (" << s << ","
                << act << ")";
        }
    }
}

// ---------------------------------------------------------------------
// The copy-on-write merge against the dense algorithm it replaced. The
// reference below keeps every device's full table and visit counts and
// merges every cell; the library merges only candidate rows and shares
// one base. After every step, every cell and visit count must agree
// bitwise.
// ---------------------------------------------------------------------

/** One device's dense mirror: Q values and visit counts per cell. */
struct DenseLearner {
    std::vector<float> q;
    std::vector<std::uint16_t> visits;
};

DenseLearner
denseCopy(const core::AutoScaleScheduler &scheduler)
{
    const core::QTable &table = scheduler.agent().table();
    DenseLearner dense;
    for (int s = 0; s < table.numStates(); ++s) {
        for (int a = 0; a < table.numActions(); ++a) {
            dense.q.push_back(table.at(s, a));
            dense.visits.push_back(0);
        }
    }
    return dense;
}

/** Algorithm 1 with the per-cell learning-rate decay, on the mirror. */
void
denseUpdate(DenseLearner &dense, const core::QLearningConfig &config,
            int numActions, int state, int action, double reward,
            int nextState)
{
    const std::size_t cell =
        static_cast<std::size_t>(state * numActions + action);
    const double rate = std::max(
        config.learningRate
            / (1.0 + config.visitDecay
                         * static_cast<double>(dense.visits[cell])),
        config.minLearningRate);
    if (dense.visits[cell] < 0xffff) {
        ++dense.visits[cell];
    }
    const double oldQ = dense.q[cell];
    float best = dense.q[static_cast<std::size_t>(nextState * numActions)];
    for (int a = 1; a < numActions; ++a) {
        best = std::max(best, dense.q[static_cast<std::size_t>(
                                  nextState * numActions + a)]);
    }
    const double target = reward + config.discount * best;
    dense.q[cell] = static_cast<float>(oldQ + rate * (target - oldQ));
}

/** The dense visit-weighted merge value of @p cell; false if unvisited. */
bool
denseMergedCell(const std::vector<DenseLearner *> &set, std::size_t cell,
                float *out)
{
    std::int64_t total = 0;
    for (const DenseLearner *dense : set) {
        total += dense->visits[cell];
    }
    if (total == 0) {
        return false;
    }
    double weighted = 0.0;
    for (const DenseLearner *dense : set) {
        weighted += static_cast<double>(dense->visits[cell])
            * static_cast<double>(dense->q[cell]);
    }
    *out = static_cast<float>(weighted / static_cast<double>(total));
    return true;
}

void
denseMerge(const std::vector<DenseLearner *> &set)
{
    if (set.size() < 2) {
        return;
    }
    for (std::size_t cell = 0; cell < set.front()->q.size(); ++cell) {
        float merged = 0.0f;
        if (denseMergedCell(set, cell, &merged)) {
            for (DenseLearner *dense : set) {
                dense->q[cell] = merged;
            }
        }
    }
}

/** Bitwise comparison of a scheduler against its dense mirror. */
::testing::AssertionResult
matchesDense(const core::AutoScaleScheduler &scheduler,
             const DenseLearner &dense)
{
    const core::QTable &table = scheduler.agent().table();
    for (int s = 0; s < table.numStates(); ++s) {
        for (int a = 0; a < table.numActions(); ++a) {
            const std::size_t cell =
                static_cast<std::size_t>(s * table.numActions() + a);
            if (std::bit_cast<std::uint32_t>(table.at(s, a))
                    != std::bit_cast<std::uint32_t>(dense.q[cell])
                || scheduler.agent().visitCount(s, a)
                    != dense.visits[cell]) {
                return ::testing::AssertionFailure()
                    << "cell (" << s << "," << a << "): Q "
                    << table.at(s, a) << " vs " << dense.q[cell]
                    << ", visits " << scheduler.agent().visitCount(s, a)
                    << " vs " << dense.visits[cell];
            }
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(QTableMerge, SparseMatchesDenseReference)
{
    const sim::InferenceSimulator &sim = testSim();
    const core::SchedulerConfig config;
    Rng rng(2024);

    // Devices 0-4 share device 0's base (two through the warm-start
    // constructor, two through transferFrom); devices 5-7 are
    // independent tables that differ from it in every row.
    std::vector<std::unique_ptr<core::AutoScaleScheduler>> devices;
    devices.push_back(
        std::make_unique<core::AutoScaleScheduler>(sim, config, 100));
    for (std::uint64_t i = 1; i < 8; ++i) {
        if (i <= 2) {
            devices.push_back(std::make_unique<core::AutoScaleScheduler>(
                sim, config, 100 + i, *devices[0]));
        } else {
            devices.push_back(std::make_unique<core::AutoScaleScheduler>(
                sim, config, 100 + i));
            if (i <= 4) {
                devices.back()->transferFrom(*devices[0]);
            }
        }
    }
    std::vector<DenseLearner> dense;
    for (const auto &device : devices) {
        dense.push_back(denseCopy(*device));
    }
    const int numStates = devices[0]->agent().table().numStates();
    const int numActions = devices[0]->agent().table().numActions();
    auto expectAllMatch = [&](const std::string &step) {
        for (std::size_t d = 0; d < devices.size(); ++d) {
            ASSERT_TRUE(matchesDense(*devices[d], dense[d]))
                << "device " << d << " after " << step;
        }
    };
    expectAllMatch("construction");

    // Random present subsets, in device order, like a churned fleet.
    auto randomSubset = [&](std::vector<core::AutoScaleScheduler *> *set,
                            std::vector<DenseLearner *> *denseSet) {
        for (std::size_t d = 0; d < devices.size(); ++d) {
            if (rng.bernoulli(0.6)) {
                set->push_back(devices[d].get());
                denseSet->push_back(&dense[d]);
            }
        }
    };

    for (int round = 0; round < 8; ++round) {
        // Updates concentrate on a few dozen states so devices collide
        // on rows, with the occasional update anywhere in the table.
        for (std::size_t d = 0; d < devices.size(); ++d) {
            const int updates = static_cast<int>(rng.uniformInt(60));
            for (int k = 0; k < updates; ++k) {
                const bool anywhere = rng.bernoulli(0.1);
                const int state = static_cast<int>(
                    rng.uniformInt(anywhere ? numStates : 40));
                const int action =
                    static_cast<int>(rng.uniformInt(numActions));
                const int next = static_cast<int>(rng.uniformInt(40));
                const double reward = rng.uniform(-20.0, 5.0);
                devices[d]->mutableAgent().update(state, action, reward,
                                                  next);
                denseUpdate(dense[d], config.rl, numActions, state, action,
                            reward, next);
            }
        }
        expectAllMatch("updates in round " + std::to_string(round));

        std::vector<core::AutoScaleScheduler *> snapshotSet;
        std::vector<DenseLearner *> denseSnapshotSet;
        randomSubset(&snapshotSet, &denseSnapshotSet);
        if (!snapshotSet.empty()) {
            const core::QTable snapshot = mergedQTableSnapshot(snapshotSet);
            DenseLearner expected = *denseSnapshotSet.front();
            for (std::size_t cell = 0; cell < expected.q.size(); ++cell) {
                if (denseSnapshotSet.size() >= 2) {
                    denseMergedCell(denseSnapshotSet, cell,
                                    &expected.q[cell]);
                }
                ASSERT_EQ(std::bit_cast<std::uint32_t>(snapshot.at(
                              static_cast<int>(cell) / numActions,
                              static_cast<int>(cell) % numActions)),
                          std::bit_cast<std::uint32_t>(expected.q[cell]))
                    << "snapshot cell " << cell << " in round " << round;
            }
        }
        expectAllMatch("snapshot in round " + std::to_string(round));

        std::vector<core::AutoScaleScheduler *> mergeSet;
        std::vector<DenseLearner *> denseMergeSet;
        randomSubset(&mergeSet, &denseMergeSet);
        mergeQTablesVisitWeighted(mergeSet);
        denseMerge(denseMergeSet);
        expectAllMatch("merge in round " + std::to_string(round));
    }
}

TEST(QTableMerge, PublishesInPlaceWhenTheSetHoldsEveryReference)
{
    // Device 0 and its warm-started peers are the only holders of one
    // base, so every merge of the whole set writes into that base.
    const sim::InferenceSimulator &sim = testSim();
    core::AutoScaleScheduler first(sim, {}, 7);
    core::AutoScaleScheduler second(sim, {}, 8, first);
    core::AutoScaleScheduler third(sim, {}, 9, first);
    const std::vector<core::AutoScaleScheduler *> set{&first, &second,
                                                      &third};
    const void *base = first.agent().table().baseId();
    const int numActions = first.agent().table().numActions();
    for (int merge = 0; merge < 3; ++merge) {
        // No updates before the last merge: it has nothing to change.
        if (merge < 2) {
            for (int step = 0; step < 40; ++step) {
                for (std::size_t d = 0; d < set.size(); ++d) {
                    set[d]->mutableAgent().update(
                        (step + static_cast<int>(d)) % 7,
                        step % numActions, -0.5 * step, step % 7);
                }
            }
        }
        mergeQTablesVisitWeighted(set);
        for (const core::AutoScaleScheduler *device : set) {
            EXPECT_EQ(device->agent().table().baseId(), base)
                << "merge " << merge << " published a new base";
            EXPECT_EQ(device->agent().table().baseHolders(), 3);
        }
        for (int s = 0; s < 7; ++s) {
            for (int a = 0; a < numActions; ++a) {
                ASSERT_EQ(std::bit_cast<std::uint32_t>(
                              first.agent().table().at(s, a)),
                          std::bit_cast<std::uint32_t>(
                              third.agent().table().at(s, a)))
                    << "merged tables disagree at (" << s << "," << a
                    << ")";
            }
        }
    }
}

TEST(QTableMerge, OutsideHolderKeepsItsValues)
{
    // A share() kept outside the merge set (like an offline device)
    // holds the set's base, so the merge must publish a copy.
    const sim::InferenceSimulator &sim = testSim();
    core::AutoScaleScheduler first(sim, {}, 7);
    core::AutoScaleScheduler second(sim, {}, 8, first);
    const int numActions = first.agent().table().numActions();
    for (int step = 0; step < 60; ++step) {
        first.mutableAgent().update(step % 5, step % numActions,
                                    1.5 * step, step % 5);
        second.mutableAgent().update(step % 6, (step + 2) % numActions,
                                     -2.0 * step, step % 6);
    }
    const core::QTable outside = first.agent().table().share();
    const core::QTable before = outside; // a dense, unshared copy
    mergeQTablesVisitWeighted({&first, &second});

    EXPECT_NE(first.agent().table().baseId(), outside.baseId());
    EXPECT_EQ(first.agent().table().baseId(),
              second.agent().table().baseId());
    bool merged = false;
    for (int s = 0; s < before.numStates(); ++s) {
        for (int a = 0; a < numActions; ++a) {
            ASSERT_EQ(std::bit_cast<std::uint32_t>(outside.at(s, a)),
                      std::bit_cast<std::uint32_t>(before.at(s, a)))
                << "outside holder changed at (" << s << "," << a << ")";
            merged = merged || first.agent().table().at(s, a)
                    != before.at(s, a);
        }
    }
    EXPECT_TRUE(merged) << "the merge changed nothing in the set";
}

TEST(FleetDeath, MergeChecksForNullBeforeReadingShapes)
{
    core::AutoScaleScheduler peer(testSim(), {}, 1);
    EXPECT_DEATH(mergeQTablesVisitWeighted({nullptr, &peer}),
                 "check failed");
    EXPECT_DEATH(mergedQTableSnapshot({nullptr, &peer}), "check failed");
}

// ---------------------------------------------------------------------
// Device records (DESIGN.md §18): every fleet device is one DeviceState
// over the fleet's single DevicePlan, recording into a per-shard trace
// buffer and a pooled metrics block. The digests below were recorded
// at commit f8cb7f9 under both of its layouts — device 0 built
// privately, peers either as records or each with private sinks —
// which agreed on every byte, so they pin every exported byte to the
// pre-refactor output.
// ---------------------------------------------------------------------

/** Run @p config with full observability and digest every export. */
FleetDigests
runAndDigest(const FleetConfig &config, FleetStats *statsOut = nullptr)
{
    obs::TraceRecorder trace(true);
    obs::MetricsRegistry metrics;
    FleetStats stats =
        runFleet(testSim(), config, obs::ObsContext{&trace, &metrics});
    std::ostringstream traceText;
    trace.writeJsonl(traceText);
    std::ostringstream metricsText;
    metrics.writeText(metricsText);
    const FleetDigests digests{stats.checksum, fnv1a(stats.qtableDump),
                               fnv1a(traceText.str()),
                               fnv1a(metricsText.str())};
    if (statsOut != nullptr) {
        *statsOut = std::move(stats);
    }
    return digests;
}

TEST(FleetRecords, ExportsMatchPinnedDigests)
{
    // Every Q-table mode, with and without churn, at shard counts 1
    // and 4. 400 requests per device run 14-16 epochs, so federated
    // merges fire (every 2 epochs), churned devices rejoin, and
    // contention snapshots are taken after real barriers. The digests
    // cover the checksum (RNG fingerprints + stats), Q-table dumps,
    // the JSONL trace, and the metrics dump.
    struct Cell {
        QTableMode qMode;
        bool churn;
        FleetDigests pinned;
    };
    const std::vector<Cell> cells = {
        {QTableMode::PerDevice, false,
         {0x41f4cd8b8dda92aaULL, 0x46dc23ee73a3063cULL,
          0xee2c10abbddcb82bULL, 0x3caedd1d077e0674ULL}},
        {QTableMode::PerDevice, true,
         {0x4daeedb435592b3dULL, 0xfe9a8c1f11053363ULL,
          0xe6e3f265b262b107ULL, 0xdc0db8608b6e4528ULL}},
        {QTableMode::Shared, false,
         {0x65d391e79992a7acULL, 0x53796c8b2d13f144ULL,
          0x6c69240063771b1dULL, 0xcc7678d0fc3a8cfcULL}},
        {QTableMode::Shared, true,
         {0xc9446a61f880386aULL, 0x3e523f4328b59a42ULL,
          0x43d67b6ce3b64e06ULL, 0x38dca2c47548352fULL}},
        {QTableMode::Federated, false,
         {0x85fc3cf9d7e06476ULL, 0xa41c263d20fce7d1ULL,
          0x7b9d77a9fc337a44ULL, 0xc3c575a031c97437ULL}},
        {QTableMode::Federated, true,
         {0xab9c9c9529087042ULL, 0x3ad9b88de4e7037cULL,
          0x8a4fe686b65cc9dfULL, 0xfd8e02ff624abc79ULL}},
    };
    for (const Cell &cell : cells) {
        FleetConfig fleet;
        fleet.serve = serveConfig(1.5, 400);
        fleet.devices = 6;
        fleet.qMode = cell.qMode;
        fleet.federatedMergeEpochs = 2;
        fleet.collectQTables = true;
        fleet.infra.edgeCapacity = 1.0;
        fleet.infra.contention = 4.0;
        fleet.infra.brownoutPeriodMs = 1000.0;
        fleet.infra.brownoutDurationMs = 250.0;
        if (cell.churn) {
            fleet.churn.crashProb = 0.10;
            fleet.churn.leaveProb = 0.05;
            fleet.churn.downEpochs = 2;
            fleet.churn.initialDevices = 3;
            fleet.churn.joinEveryEpochs = 1;
        }
        for (const int shards : {1, 4}) {
            SCOPED_TRACE(std::string(qTableModeName(cell.qMode))
                         + " churn=" + std::to_string(cell.churn)
                         + " shards=" + std::to_string(shards));
            FleetConfig config = fleet;
            config.shards = shards;
            FleetStats stats;
            EXPECT_EQ(runAndDigest(config, &stats), cell.pinned);
            // The coverage the digests are meant to carry.
            EXPECT_GE(stats.epochs, 14);
            if (cell.churn) {
                EXPECT_GT(stats.churnRejoins, 0);
                EXPECT_GT(stats.aggregate.shedChurn, 0);
            }
        }
    }
}

TEST(FleetRecords, SharedLearnerFleetsMatchPinnedDigests)
{
    // Two shared-table fleets whose digests were recorded before the
    // Q-table became copy-on-write, so they pin the merge's output to
    // the dense algorithm's. The first has the learner-fleet benchmark
    // workload's shape: 64 devices, S1, device 0 pre-trained, peers
    // warm-started from it. The second churns 16 devices: staggered
    // joins and crashed devices that stay offline for three epochs, so
    // they rejoin after missing at least two merges with the table
    // they left with.
    FleetConfig learner;
    learner.serve = serveConfig(0.3, 60);
    learner.serve.scenario = env::ScenarioId::S1;
    learner.serve.trainRunsPerCombo = 40;
    learner.devices = 64;
    learner.qMode = QTableMode::Shared;
    learner.collectQTables = true;

    FleetConfig churned;
    churned.serve = serveConfig(1.5, 200);
    churned.devices = 16;
    churned.qMode = QTableMode::Shared;
    churned.collectQTables = true;
    churned.churn.crashProb = 0.08;
    churned.churn.leaveProb = 0.04;
    churned.churn.downEpochs = 3;
    churned.churn.initialDevices = 10;
    churned.churn.joinEveryEpochs = 2;

    const FleetDigests learnerPinned{
        0x6a1452bab193ec0fULL, 0x6a684ffe464381cbULL,
        0x4bed4097680ed297ULL, 0xa9fe164725d2defaULL};
    const FleetDigests churnedPinned{
        0x9de7da56f6205dcaULL, 0xf5e881abf5f414eaULL,
        0x3bc211416216d7f3ULL, 0x41936012519f7eccULL};
    for (const int shards : {1, 4}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        FleetConfig config = learner;
        config.shards = shards;
        FleetStats stats;
        EXPECT_EQ(runAndDigest(config, &stats), learnerPinned);
        EXPECT_GE(stats.epochs, 10);

        config = churned;
        config.shards = shards;
        EXPECT_EQ(runAndDigest(config, &stats), churnedPinned);
        EXPECT_GT(stats.churnRejoins, 0);
        EXPECT_GT(stats.churnJoins, 0);
        EXPECT_GT(stats.aggregate.shedChurn, 0);
    }
}

TEST(FleetRecords, FixedPolicyFleetsMatchPinnedDigests)
{
    // The four fixed baselines as fleets, recorded while every device
    // still built and profiled its own policy instance, so they pin
    // each exported byte to that layout. A tight edge and Wi-Fi plus
    // cloud brownouts make the remote policies queue, derate and
    // degrade; the connected-edge churn cell crashes and rejoins
    // devices mid-run. Every cell runs at shards 1 and 4 and at jobs
    // 1 and 4.
    struct Cell {
        const char *policy;
        bool churn;
        FleetDigests pinned;
    };
    // Fixed policies have no Q-table: the dump is empty.
    constexpr std::uint64_t kEmptyDump = 0xcbf29ce484222325ULL;
    const std::vector<Cell> cells = {
        {"connected-edge", false,
         {0xc8a57a20fb99d9b9ULL, kEmptyDump,
          0x1f205cc7d6370f7cULL, 0x9937499262628676ULL}},
        {"connected-edge", true,
         {0xad203fdf9dd85683ULL, kEmptyDump,
          0x4f25c12d3e3614c5ULL, 0x8254286da57532d7ULL}},
        {"edge-best", false,
         {0xfa5832d2759dec4eULL, kEmptyDump,
          0x792507c7946bcd4eULL, 0xbdc99c496e001a36ULL}},
        {"cloud", false,
         {0x86291461534ac626ULL, kEmptyDump,
          0x5fe92fcd354556f8ULL, 0xe8058cbceac7f921ULL}},
        {"edge-cpu", false,
         {0xfe7ba5a7f903e766ULL, kEmptyDump,
          0xb2f5e654a03e530aULL, 0xffc8d7e5e08f0125ULL}},
    };
    for (const Cell &cell : cells) {
        FleetConfig fleet;
        fleet.serve = serveConfig(1.2, 300);
        fleet.serve.policyName = cell.policy;
        fleet.serve.trainRunsPerCombo = 0;
        fleet.devices = 8;
        fleet.infra.edgeCapacity = 2.0;
        fleet.infra.wifiCapacity = 2.0;
        fleet.infra.contention = 4.0;
        fleet.infra.brownoutPeriodMs = 1000.0;
        fleet.infra.brownoutDurationMs = 250.0;
        if (cell.churn) {
            fleet.churn.crashProb = 0.10;
            fleet.churn.leaveProb = 0.05;
            fleet.churn.downEpochs = 2;
            fleet.churn.initialDevices = 5;
        }
        for (const int shards : {1, 4}) {
            for (const int jobs : {1, 4}) {
                SCOPED_TRACE(std::string(cell.policy)
                             + " churn=" + std::to_string(cell.churn)
                             + " shards=" + std::to_string(shards)
                             + " jobs=" + std::to_string(jobs));
                FleetConfig config = fleet;
                config.shards = shards;
                config.jobs = jobs;
                FleetStats stats;
                EXPECT_EQ(runAndDigest(config, &stats), cell.pinned);
                EXPECT_GE(stats.epochs, 10);
                EXPECT_GT(stats.aggregate.served, 0);
                if (cell.churn) {
                    EXPECT_GT(stats.churnRejoins, 0);
                    EXPECT_GT(stats.aggregate.shedChurn, 0);
                }
            }
        }
    }
}

TEST(FleetRecords, CheckpointBytesMatchPinnedDigest)
{
    // The halted run's manifest bytes are pinned (config digest, state
    // digest, churn line, merged Q-table), and resuming from it must
    // finish the uninterrupted run's exact outputs.
    const char *path = "fleet_records_unit.ckpt";
    const char *prev = "fleet_records_unit.ckpt.prev";
    std::remove(path);
    std::remove(prev);

    FleetConfig fleet;
    fleet.serve = serveConfig(2.0, 200);
    fleet.devices = 4;
    fleet.qMode = QTableMode::Shared;
    fleet.collectQTables = true;
    fleet.churn.crashProb = 0.08;
    fleet.churn.downEpochs = 2;

    FleetConfig halted = fleet;
    halted.serve.checkpointPath = path;
    halted.haltAfterEpochs = 2;
    const FleetStats haltStats = runFleet(testSim(), halted, {});
    EXPECT_TRUE(haltStats.halted);
    EXPECT_GT(haltStats.checkpointsWritten, 0);
    const std::string manifest = fileBytes(path);
    EXPECT_EQ(manifest.size(), 2425607u);
    EXPECT_EQ(fnv1a(manifest), 0xa45ffe1ad78e65f6ULL);

    const FleetDigests uninterrupted{
        0xc73b03be06a28b2fULL, 0x141ce18858b8e7eeULL,
        0xb266f45250b3ec00ULL, 0x54872bd871e7b90aULL};
    EXPECT_EQ(runAndDigest(fleet), uninterrupted);

    FleetConfig resumed = fleet;
    resumed.serve.checkpointPath = path;
    resumed.serve.resume = true;
    FleetStats resumeStats;
    EXPECT_EQ(runAndDigest(resumed, &resumeStats), uninterrupted);
    EXPECT_TRUE(resumeStats.resumed);

    std::remove(path);
    std::remove(prev);
}

TEST(FleetRecords, AggregateStatsFoldPreservesTotalsAndChecksum)
{
    // aggregateStats drops the per-device ServeStats vector (a
    // million-device run cannot afford it) but must not change any
    // total or the cross-shard checksum: the fold is the same
    // arithmetic in the same device order.
    FleetConfig fleet;
    fleet.serve = serveConfig(1.5, 40);
    fleet.devices = 6;
    fleet.churn.crashProb = 0.10;
    fleet.churn.downEpochs = 2;

    // Above the cap: 2,100 devices at --shards 1 run as 3 shards, each
    // finishing its devices and summing their counts on a worker.
    FleetConfig large = fleet;
    large.serve = serveConfig(1.0, 20);
    large.devices = 2100;
    large.shards = 1;
    large.jobs = 3;
    ASSERT_EQ(fleetShardCount(large), 3u);

    for (const FleetConfig *config : {&fleet, &large}) {
        SCOPED_TRACE(std::to_string(config->devices) + " devices");
        FleetConfig folded = *config;
        folded.aggregateStats = true;

        const FleetStats full = runFleet(testSim(), *config, {});
        const FleetStats agg = runFleet(testSim(), folded, {});

        ASSERT_EQ(full.devices.size(),
                  static_cast<std::size_t>(config->devices));
        EXPECT_TRUE(agg.devices.empty());
        EXPECT_EQ(agg.checksum, full.checksum);
        EXPECT_EQ(agg.endClockMs, full.endClockMs);

        // Both modes fold the same totals: the sum of the kept
        // per-device stats, energy summed in device order from +0.0.
        FleetAggregate expected;
        for (const ServeStats &device : full.devices) {
            expected.arrivals += device.arrivals;
            expected.served += device.served;
            expected.shed += device.shedOverflow + device.shedDeadline
                + device.shedStale;
            expected.shedChurn += device.shedChurn;
            expected.degraded += device.degraded;
            expected.qosViolations += device.qosViolations;
            expected.energyJ += device.energyJ;
            expected.wastedEnergyJ += device.wastedEnergyJ;
        }
        for (const FleetStats *stats : {&full, &agg}) {
            const FleetAggregate &folded = stats->aggregate;
            EXPECT_EQ(folded.arrivals, expected.arrivals);
            EXPECT_EQ(folded.served, expected.served);
            EXPECT_EQ(folded.shed, expected.shed);
            EXPECT_EQ(folded.shedChurn, expected.shedChurn);
            EXPECT_EQ(folded.degraded, expected.degraded);
            EXPECT_EQ(folded.qosViolations, expected.qosViolations);
            EXPECT_EQ(folded.energyJ, expected.energyJ);
            EXPECT_EQ(folded.wastedEnergyJ, expected.wastedEnergyJ);
        }
    }
}

TEST(FleetRecords, LearnerFleetStaysUnderMemoryBudget)
{
    // ROADMAP item 4's learner gate at a size CI can run: 10,000
    // shared-mode learners, each holding its visit rows and the rows it
    // wrote since the last merge over one shared base. With a dense
    // table and visit counts per device (1.23 MB) this run would need
    // about 12 GB.
    FleetConfig fleet;
    fleet.serve = serveConfig(0.5, 20);
    fleet.devices = 10000;
    fleet.qMode = QTableMode::Shared;
    fleet.aggregateStats = true;
    fleet.reportMemory = true;

    const FleetStats stats = runFleet(testSim(), fleet, {});
    EXPECT_EQ(stats.aggregate.arrivals, 200000);
    EXPECT_EQ(stats.aggregate.arrivals,
              stats.aggregate.served + stats.aggregate.shed);
    EXPECT_GT(stats.aggregate.served, 0);
    ASSERT_GT(stats.peakRssBytes, 0u);
    ASSERT_GT(stats.bytesPerDevice, 0.0);
    if (!kThreadSanitizer) {
        EXPECT_LE(stats.bytesPerDevice, 32.0 * 1024.0);
    }
}

TEST(FleetRecords, MemoryFigureChargesOnlyItsOwnRun)
{
    // A 40,000-device fleet first raises the process's peak RSS by far
    // more than the small metered fleet after it uses, then frees it.
    // The second run's bytes/device must describe that run alone, not
    // the gap between the earlier peak and its own entry RSS.
    FleetConfig big;
    big.serve.policyName = "connected-edge";
    big.serve.trainRunsPerCombo = 0;
    big.serve.totalRequests = 2;
    big.serve.arrival.ratePerSec = 50.0;
    big.devices = 40000;
    const FleetStats bigStats = runFleet(testSim(), big, {});
    EXPECT_EQ(bigStats.aggregate.arrivals, 80000);

    FleetConfig small = big;
    small.devices = 1000;
    small.reportMemory = true;
    obs::MetricsRegistry metrics;
    const FleetStats stats =
        runFleet(testSim(), small, obs::ObsContext{nullptr, &metrics});
    EXPECT_EQ(stats.aggregate.arrivals, 2000);
    ASSERT_GT(stats.peakRssBytes, 0u);
    if (!kThreadSanitizer) {
        EXPECT_LT(stats.bytesPerDevice, 8192.0);
    }
}

TEST(FleetRecords, HundredThousandDeviceSmokeStaysUnderMemoryBudget)
{
    // The device record itself must stay flat: one cache-friendly
    // struct, no growth past the envelope DESIGN.md §18 promises.
    EXPECT_LE(sizeof(DeviceState), 2048u);

    // 100k fixed-policy devices in-process — the CI-scale end of the
    // envelope (bench_fleet gates the same bytes/device number at a
    // million devices, measured ~1.8 KB/device); the 4 KiB ceiling
    // leaves headroom for allocator noise, not for regressions.
    FleetConfig fleet;
    fleet.serve.policyName = "connected-edge";
    fleet.serve.trainRunsPerCombo = 0;
    fleet.serve.totalRequests = 2;
    fleet.serve.arrival.ratePerSec = 50.0;
    fleet.devices = 100000;
    fleet.aggregateStats = true;
    fleet.reportMemory = true;

    const FleetStats stats = runFleet(testSim(), fleet, {});
    EXPECT_EQ(stats.aggregate.arrivals, 200000);
    EXPECT_EQ(stats.aggregate.arrivals,
              stats.aggregate.served + stats.aggregate.shed);
    EXPECT_TRUE(stats.devices.empty());
    ASSERT_GT(stats.peakRssBytes, 0u);
    ASSERT_GT(stats.bytesPerDevice, 0.0);
    if (!kThreadSanitizer) {
        EXPECT_LT(stats.bytesPerDevice, 4096.0);
    }
}

} // namespace
} // namespace autoscale::serve
