/**
 * @file
 * Bit-exactness parity suite for the precomputed decision-path tables
 * (DESIGN.md §13). Every test constructs two identical simulators —
 * one serving from the CostModelCache, one with setUseCostCache(false)
 * recomputing from first principles — and asserts `==` (not NEAR) on
 * every outcome field: the cache replays the exact FP operation
 * sequence of the direct path, so any rounding difference is a bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/oracle.h"
#include "dnn/model_zoo.h"
#include "env/scenario.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "platform/device_zoo.h"
#include "sim/qos.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace autoscale::sim {
namespace {

struct SimPair {
    InferenceSimulator cached;
    InferenceSimulator direct;
};

using DeviceFactory = platform::Device (*)();

SimPair
makePair(DeviceFactory factory)
{
    SimPair pair{InferenceSimulator::makeDefault(factory()),
                 InferenceSimulator::makeDefault(factory())};
    EXPECT_TRUE(pair.cached.usingCostCache());
    pair.direct.setUseCostCache(false);
    return pair;
}

const DeviceFactory kAllDevices[] = {
    platform::makeMi8Pro, platform::makeGalaxyS10e,
    platform::makeMotoXForce};

/**
 * The derate grid: identity, the Table IV-style hogs (which hit the
 * interference/thermal derate paths), weak radio links (which change
 * transfer math but not derates), and deliberately "ugly" fractional
 * values that would expose any prefix-sum shortcut taken on a
 * non-identity derate.
 */
std::vector<env::EnvState>
envGrid()
{
    std::vector<env::EnvState> grid;
    grid.emplace_back(); // identity derate, clean links

    env::EnvState cpu_hog;
    cpu_hog.coCpuUtil = 0.85;
    cpu_hog.coMemUtil = 0.1;
    cpu_hog.thermalFactor = 0.85;
    grid.push_back(cpu_hog);

    env::EnvState mem_hog;
    mem_hog.coCpuUtil = 0.2;
    mem_hog.coMemUtil = 0.8;
    grid.push_back(mem_hog);

    env::EnvState weak_links;
    weak_links.rssiWlanDbm = -85.0;
    weak_links.rssiP2pDbm = -79.0;
    grid.push_back(weak_links);

    env::EnvState ugly;
    ugly.coCpuUtil = 0.37;
    ugly.coMemUtil = 0.21;
    ugly.thermalFactor = 0.93;
    ugly.rssiWlanDbm = -72.5;
    ugly.rssiP2pDbm = -68.3;
    grid.push_back(ugly);

    return grid;
}

void
expectSameOutcome(const Outcome &a, const Outcome &b,
                  const std::string &context)
{
    ASSERT_EQ(a.feasible, b.feasible) << context;
    EXPECT_EQ(a.latencyMs, b.latencyMs) << context;
    EXPECT_EQ(a.energyJ, b.energyJ) << context;
    EXPECT_EQ(a.estimatedEnergyJ, b.estimatedEnergyJ) << context;
    EXPECT_EQ(a.accuracyPct, b.accuracyPct) << context;
    EXPECT_EQ(a.computeMs, b.computeMs) << context;
    EXPECT_EQ(a.txMs, b.txMs) << context;
    EXPECT_EQ(a.rxMs, b.rxMs) << context;
}

const std::vector<dnn::Precision> kPrecisions = {
    dnn::Precision::FP32, dnn::Precision::FP16, dnn::Precision::INT8};

const std::vector<platform::ProcKind> kAllProcKinds = {
    platform::ProcKind::MobileCpu, platform::ProcKind::MobileGpu,
    platform::ProcKind::MobileDsp, platform::ProcKind::MobileNpu,
    platform::ProcKind::ServerCpu, platform::ProcKind::ServerGpu,
    platform::ProcKind::ServerTpu};

/**
 * Every (zoo network × device × place × processor kind × precision ×
 * V/F step × derate-grid env) expected() outcome must agree
 * bit-for-bit, and so must targetAvailable and isFeasible. The sweep
 * covers every ProcKind at every place, whether or not the device has
 * it, and V/F steps up to numVfSteps() inclusive (for an absent kind,
 * up to the device's largest step count inclusive), so the "unavailable"
 * entries of the construction-time availability table are compared
 * with the per-call evaluation as well.
 */
TEST(CostCacheParity, ExhaustiveExpectedSweep)
{
    for (const DeviceFactory factory : kAllDevices) {
        SimPair pair = makePair(factory);
        const std::vector<env::EnvState> envs = envGrid();
        const struct {
            TargetPlace place;
            const platform::Device &dev;
        } places[] = {
            {TargetPlace::Local, pair.cached.localDevice()},
            {TargetPlace::ConnectedEdge, pair.cached.connectedDevice()},
            {TargetPlace::Cloud, pair.cached.cloudDevice()},
        };
        std::size_t unavailable = 0;
        for (const dnn::Network &net : dnn::modelZoo()) {
            for (const auto &entry : places) {
                std::size_t maxSteps = 0;
                for (const platform::Processor *proc :
                     entry.dev.processors()) {
                    maxSteps = std::max(maxSteps, proc->numVfSteps());
                }
                for (const platform::ProcKind kind : kAllProcKinds) {
                    const platform::Processor *proc =
                        entry.dev.processor(kind);
                    const std::size_t lastVf =
                        proc != nullptr ? proc->numVfSteps() : maxSteps;
                    for (const dnn::Precision precision : kPrecisions) {
                        for (std::size_t vf = 0; vf <= lastVf; ++vf) {
                            const ExecutionTarget target{entry.place, kind,
                                                         vf, precision};
                            std::ostringstream context;
                            context << pair.cached.localDevice().name()
                                    << " " << net.name() << " "
                                    << targetPlaceName(entry.place) << " "
                                    << platform::procKindName(kind) << " "
                                    << dnn::precisionName(precision)
                                    << " vf " << vf;
                            for (const bool usable : {false, true}) {
                                EXPECT_EQ(
                                    pair.cached.targetAvailable(target,
                                                                usable),
                                    pair.direct.targetAvailable(target,
                                                                usable))
                                    << context.str() << " usable "
                                    << usable;
                            }
                            const bool feasible =
                                pair.cached.isFeasible(net, target);
                            EXPECT_EQ(feasible,
                                      pair.direct.isFeasible(net, target))
                                << context.str();
                            unavailable += feasible ? 0 : 1;
                            for (std::size_t e = 0; e < envs.size(); ++e) {
                                expectSameOutcome(
                                    pair.cached.expected(net, target,
                                                         envs[e]),
                                    pair.direct.expected(net, target,
                                                         envs[e]),
                                    context.str() + " env#"
                                        + std::to_string(e));
                            }
                        }
                    }
                }
            }
        }
        EXPECT_GT(unavailable, 0u);
    }
}

/**
 * Partitioned execution: every split point of several networks, local
 * processors at top and bottom V/F (the bottom step exercises the
 * non-top-V/F range path that has no tail sums), both remote places,
 * across the derate grid.
 */
TEST(CostCacheParity, PartitionedSweep)
{
    SimPair pair = makePair(platform::makeMi8Pro);
    const std::vector<env::EnvState> envs = envGrid();
    for (const char *name :
         {"Inception v3", "ResNet 50", "MobileNet v2"}) {
        const dnn::Network &net = dnn::findModel(name);
        const std::size_t num_layers = net.layers().size();
        const struct {
            platform::ProcKind proc;
            dnn::Precision precision;
        } locals[] = {
            {platform::ProcKind::MobileCpu, dnn::Precision::FP32},
            {platform::ProcKind::MobileGpu, dnn::Precision::FP16},
        };
        for (const auto &local : locals) {
            const platform::Processor *proc =
                pair.cached.localDevice().processor(local.proc);
            ASSERT_NE(proc, nullptr);
            for (const TargetPlace remote :
                 {TargetPlace::Cloud, TargetPlace::ConnectedEdge}) {
                for (const std::size_t vf :
                     {std::size_t{0}, proc->maxVfIndex()}) {
                    for (std::size_t split = 0; split <= num_layers;
                         ++split) {
                        PartitionSpec spec;
                        spec.splitLayer = split;
                        spec.localProc = local.proc;
                        spec.vfIndex = vf;
                        spec.localPrecision = local.precision;
                        spec.remotePlace = remote;
                        for (std::size_t e = 0; e < envs.size(); ++e) {
                            std::ostringstream context;
                            context << name << " split=" << split
                                    << " vf=" << vf << " env#" << e;
                            expectSameOutcome(
                                pair.cached.expectedPartitioned(
                                    net, spec, envs[e]),
                                pair.direct.expectedPartitioned(
                                    net, spec, envs[e]),
                                context.str());
                        }
                    }
                }
            }
        }
    }
}

/** Sample @p steps EnvStates from a seeded scenario stream. */
std::vector<env::EnvState>
sampleEnvStream(env::ScenarioId id, const fault::FaultPlan &faults,
                int steps, std::uint64_t seed)
{
    env::Scenario scenario(id, faults);
    Rng rng(seed);
    std::vector<env::EnvState> envs;
    envs.reserve(static_cast<std::size_t>(steps));
    for (int i = 0; i < steps; ++i) {
        envs.push_back(scenario.next(rng));
    }
    return envs;
}

/**
 * The oracle's choice (which sweeps the precomputed feasible-action
 * subset when the cache is on, the full action list when off) and the
 * forced local fallback must be identical on every step of seeded
 * fault-free and flaky-wifi environment streams.
 */
TEST(CostCacheParity, OracleAndFallbackDecisions)
{
    SimPair pair = makePair(platform::makeMi8Pro);
    baselines::OptOracle cachedOracle(pair.cached);
    baselines::OptOracle directOracle(pair.direct);
    const struct {
        env::ScenarioId id;
        const char *faults;
    } streams[] = {
        {env::ScenarioId::S1, "none"},
        {env::ScenarioId::D4, "none"},
        {env::ScenarioId::S4, "flaky-wifi"},
        {env::ScenarioId::D3, "flaky-wifi"},
    };
    for (const auto &stream : streams) {
        const std::vector<env::EnvState> envs = sampleEnvStream(
            stream.id, fault::FaultPlan::fromName(stream.faults), 60, 42);
        for (const dnn::Network &net : dnn::modelZoo()) {
            const InferenceRequest request = makeRequest(net);
            for (std::size_t i = 0; i < envs.size(); ++i) {
                std::ostringstream context;
                context << net.name() << " "
                        << env::scenarioName(stream.id) << "+"
                        << stream.faults << " step " << i;
                EXPECT_TRUE(
                    cachedOracle.optimalTarget(request, envs[i])
                    == directOracle.optimalTarget(request, envs[i]))
                    << context.str();
                EXPECT_TRUE(
                    pair.cached.bestLocalTarget(
                        net, envs[i], request.accuracyTargetPct)
                    == pair.direct.bestLocalTarget(
                        net, envs[i], request.accuracyTargetPct))
                    << context.str();
            }
        }
    }
}

/**
 * Noisy paths: run() and runWithFaults() from identical RNG seeds must
 * produce bit-identical measurements and consume identical RNG
 * streams (checked by comparing the generators' next draws at the end).
 */
TEST(CostCacheParity, NoisyRunAndFaultStreams)
{
    SimPair pair = makePair(platform::makeMi8Pro);
    const std::vector<env::EnvState> envs = sampleEnvStream(
        env::ScenarioId::D3, fault::FaultPlan::fromName("flaky-wifi"),
        120, 7);
    const ExecutionTarget cloud{TargetPlace::Cloud,
                                platform::ProcKind::ServerGpu,
                                pair.cached.cloudDevice().gpu().maxVfIndex(),
                                dnn::Precision::FP32};
    const fault::RetryPolicy retry;
    for (const dnn::Network &net : dnn::modelZoo()) {
        const InferenceRequest request = makeRequest(net);
        const ExecutionTarget local{
            TargetPlace::Local, platform::ProcKind::MobileCpu,
            pair.cached.localDevice().cpu().maxVfIndex(),
            dnn::Precision::FP32};
        Rng rngCachedRun(11);
        Rng rngDirectRun(11);
        Rng rngCachedFault(13);
        Rng rngDirectFault(13);
        for (std::size_t i = 0; i < envs.size(); ++i) {
            const std::string context =
                std::string(net.name()) + " step " + std::to_string(i);
            expectSameOutcome(
                pair.cached.run(net, local, envs[i], rngCachedRun),
                pair.direct.run(net, local, envs[i], rngDirectRun),
                context + " run/local");
            const FaultOutcome a = pair.cached.runWithFaults(
                net, cloud, envs[i], retry, request.accuracyTargetPct,
                rngCachedFault);
            const FaultOutcome b = pair.direct.runWithFaults(
                net, cloud, envs[i], retry, request.accuracyTargetPct,
                rngDirectFault);
            expectSameOutcome(a.outcome, b.outcome, context + " fault");
            EXPECT_TRUE(a.executedTarget == b.executedTarget) << context;
            EXPECT_EQ(a.attempts, b.attempts) << context;
            EXPECT_EQ(a.fellBack, b.fellBack) << context;
            EXPECT_EQ(a.wastedEnergyJ, b.wastedEnergyJ) << context;
        }
        EXPECT_EQ(rngCachedRun.next(), rngDirectRun.next()) << net.name();
        EXPECT_EQ(rngCachedFault.next(), rngDirectFault.next())
            << net.name();
    }
}

/**
 * Synthetic (non-zoo) networks are absent from the cache and must fall
 * back to the direct path transparently — same outcomes, no crash.
 */
TEST(CostCacheParity, NonZooNetworkFallsBackToDirect)
{
    SimPair pair = makePair(platform::makeMi8Pro);
    const dnn::Network copy = dnn::findModel("ResNet 50");
    EXPECT_EQ(pair.cached.costCache().entry(copy), nullptr);
    const ExecutionTarget target{TargetPlace::Local,
                                 platform::ProcKind::MobileCpu,
                                 pair.cached.localDevice().cpu().maxVfIndex(),
                                 dnn::Precision::FP32};
    for (const env::EnvState &env : envGrid()) {
        expectSameOutcome(pair.cached.expected(copy, target, env),
                          pair.direct.expected(copy, target, env),
                          "reconstructed ResNet 50");
    }
}

} // namespace
} // namespace autoscale::sim
