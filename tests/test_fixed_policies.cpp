/**
 * @file
 * Tests for the fixed baselines of Section V-A: Edge (CPU FP32),
 * Edge (Best), Cloud, and Connected Edge.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "baselines/fixed.h"
#include "dnn/model_zoo.h"
#include "obs/metrics_registry.h"
#include "platform/device_zoo.h"

namespace autoscale::baselines {
namespace {

sim::InferenceSimulator
mi8Sim()
{
    return sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
}

TEST(EdgeCpuFp32, AlwaysPicksTheCpuAtTopFrequency)
{
    const sim::InferenceSimulator sim = mi8Sim();
    auto policy = makeEdgeCpuFp32Policy(sim);
    EXPECT_EQ(policy->name(), "Edge (CPU FP32)");
    Rng rng(1);
    for (const auto &net : dnn::modelZoo()) {
        const sim::InferenceRequest request = sim::makeRequest(net);
        const Decision decision =
            policy->decide(request, env::EnvState{}, rng);
        EXPECT_FALSE(decision.partitioned);
        EXPECT_EQ(decision.target.place, sim::TargetPlace::Local);
        EXPECT_EQ(decision.target.proc, platform::ProcKind::MobileCpu);
        EXPECT_EQ(decision.target.precision, dnn::Precision::FP32);
        EXPECT_EQ(decision.target.vfIndex,
                  sim.localDevice().cpu().maxVfIndex());
    }
}

TEST(EdgeBest, PicksMostEfficientLocalProcessorPerNetwork)
{
    const sim::InferenceSimulator sim = mi8Sim();
    auto policy = makeEdgeBestPolicy(sim);
    Rng rng(2);
    const env::EnvState clean;
    for (const auto &net : dnn::modelZoo()) {
        const sim::InferenceRequest request = sim::makeRequest(net);
        const Decision decision = policy->decide(request, clean, rng);
        ASSERT_FALSE(decision.partitioned);
        EXPECT_EQ(decision.target.place, sim::TargetPlace::Local);
        // The chosen target must be feasible and at least as efficient
        // as the CPU baseline under the clean environment.
        const sim::Outcome chosen =
            sim.expected(net, decision.target, clean);
        ASSERT_TRUE(chosen.feasible) << net.name();
        sim::ExecutionTarget cpu{sim::TargetPlace::Local,
                                 platform::ProcKind::MobileCpu,
                                 sim.localDevice().cpu().maxVfIndex(),
                                 dnn::Precision::FP32};
        const sim::Outcome baseline = sim.expected(net, cpu, clean);
        EXPECT_LE(chosen.energyJ, baseline.energyJ * 1.0001) << net.name();
    }
}

TEST(EdgeBest, UsesCoProcessorForConvHeavyNetworks)
{
    const sim::InferenceSimulator sim = mi8Sim();
    auto policy = makeEdgeBestPolicy(sim);
    Rng rng(3);
    const dnn::Network net = dnn::makeInceptionV1();
    const sim::InferenceRequest request = sim::makeRequest(net);
    const Decision decision =
        policy->decide(request, env::EnvState{}, rng);
    EXPECT_NE(decision.target.proc, platform::ProcKind::MobileCpu);
}

TEST(EdgeBest, FallsBackToCpuForMobileBert)
{
    // Co-processors cannot run MobileBERT, so the best local option is
    // the CPU.
    const sim::InferenceSimulator sim = mi8Sim();
    auto policy = makeEdgeBestPolicy(sim);
    Rng rng(4);
    const dnn::Network bert = dnn::makeMobileBert();
    const sim::InferenceRequest request = sim::makeRequest(bert);
    const Decision decision =
        policy->decide(request, env::EnvState{}, rng);
    EXPECT_EQ(decision.target.proc, platform::ProcKind::MobileCpu);
    EXPECT_TRUE(sim.isFeasible(bert, decision.target));
}

TEST(EdgeBest, DecisionIsCachedPerNetwork)
{
    const sim::InferenceSimulator sim = mi8Sim();
    auto policy = makeEdgeBestPolicy(sim);
    Rng rng(5);
    const dnn::Network net = dnn::makeMobileNetV3();
    const sim::InferenceRequest request = sim::makeRequest(net);
    const Decision first = policy->decide(request, env::EnvState{}, rng);
    // Offline profiling: the decision must not change with the runtime
    // environment (that is exactly its weakness under variance).
    env::EnvState hog;
    hog.coCpuUtil = 0.9;
    const Decision second = policy->decide(request, hog, rng);
    EXPECT_TRUE(first.target == second.target);
}

/** One of the public fixed-policy factories. */
using Factory =
    std::unique_ptr<SchedulingPolicy> (*)(const sim::InferenceSimulator &);

/** Every zoo network's plain and (vision only) streaming request. */
std::vector<sim::InferenceRequest>
zooRequests(double accuracyTargetPct)
{
    std::vector<sim::InferenceRequest> requests;
    for (const dnn::Network &net : dnn::modelZoo()) {
        requests.push_back(sim::makeRequest(net, accuracyTargetPct));
        if (net.task() != dnn::Task::Translation) {
            requests.push_back(
                sim::makeStreamingRequest(net, accuracyTargetPct));
        }
    }
    return requests;
}

TEST(OfflinePick, FollowsTheWholeRequestNotJustTheNetwork)
{
    // One instance deciding requests in sequence must pick what a fresh
    // instance picks for each: the offline pick depends on the QoS and
    // accuracy targets, not only on the network. (Edge (Best) on
    // Inception v1 at 70% must not reuse the DSP INT8 pick it made at
    // 0%: INT8 misses that accuracy target.)
    const sim::InferenceSimulator sim = mi8Sim();
    for (const Factory make :
         {&makeEdgeBestPolicy, &makeConnectedEdgePolicy}) {
        const std::unique_ptr<SchedulingPolicy> reused = make(sim);
        Rng rng(9);
        for (const double target : {0.0, 50.0, 65.0, 70.0}) {
            for (const sim::InferenceRequest &request :
                 zooRequests(target)) {
                const Decision fresh =
                    make(sim)->decide(request, env::EnvState{}, rng);
                const Decision again =
                    reused->decide(request, env::EnvState{}, rng);
                EXPECT_TRUE(again.target == fresh.target)
                    << reused->name() << " " << request.network->name()
                    << " qos " << request.qosMs << " target " << target;
            }
        }
    }
}

TEST(ServingFixedPolicy, DecidesItsProfileWithoutProfilingAgain)
{
    // The serving form of each fixed policy profiles its requests up
    // front; deciding them afterwards only reads the policy (no
    // simulator call), and picks what the lazily profiling form picks.
    sim::InferenceSimulator sim = mi8Sim();
    obs::MetricsRegistry metrics;
    sim.setObserver(&metrics);
    const obs::Counter &expected = metrics.counter("sim.expected");
    const std::vector<sim::InferenceRequest> profile = zooRequests(65.0);
    const std::vector<std::pair<const char *, Factory>> policies = {
        {"cloud", &makeCloudPolicy},
        {"connected-edge", &makeConnectedEdgePolicy},
        {"edge-best", &makeEdgeBestPolicy},
        {"edge-cpu", &makeEdgeCpuFp32Policy},
    };
    Rng rng(10);
    for (const auto &[name, make] : policies) {
        const std::unique_ptr<SchedulingPolicy> lazy = make(sim);
        const std::unique_ptr<SchedulingPolicy> serving =
            makeServingFixedPolicy(name, sim, profile);
        ASSERT_NE(serving, nullptr) << name;
        EXPECT_EQ(serving->name(), lazy->name());
        for (const sim::InferenceRequest &request : profile) {
            const Decision want =
                lazy->decide(request, env::EnvState{}, rng);
            const std::int64_t before = expected.value();
            const Decision got =
                serving->decide(request, env::EnvState{}, rng);
            EXPECT_EQ(expected.value(), before) << name;
            EXPECT_TRUE(got.target == want.target)
                << name << " " << request.network->name();
        }
    }
    EXPECT_EQ(makeServingFixedPolicy("autoscale", sim, profile), nullptr);
}

TEST(ServingFixedPolicyDeath, RefusesToProfileARequestOutsideItsProfile)
{
    // A serving policy is shared by concurrent deciders, so a request
    // it was not profiled on fails loudly instead of writing the table.
    const sim::InferenceSimulator sim = mi8Sim();
    const std::unique_ptr<SchedulingPolicy> serving =
        makeServingFixedPolicy("edge-best", sim, zooRequests(50.0));
    const dnn::Network net = dnn::makeInceptionV1();
    Rng rng(11);
    EXPECT_DEATH(serving->decide(sim::makeRequest(net, 70.0),
                                 env::EnvState{}, rng),
                 "check failed");
}

TEST(Cloud, AlwaysPicksTheServerGpu)
{
    const sim::InferenceSimulator sim = mi8Sim();
    auto policy = makeCloudPolicy(sim);
    EXPECT_EQ(policy->name(), "Cloud");
    Rng rng(6);
    for (const auto &net : dnn::modelZoo()) {
        const sim::InferenceRequest request = sim::makeRequest(net);
        const Decision decision =
            policy->decide(request, env::EnvState{}, rng);
        EXPECT_EQ(decision.target.place, sim::TargetPlace::Cloud);
        EXPECT_EQ(decision.target.proc, platform::ProcKind::ServerGpu);
        EXPECT_TRUE(sim.isFeasible(net, decision.target));
    }
}

TEST(ConnectedEdge, AlwaysOffloadsToTheTablet)
{
    const sim::InferenceSimulator sim = mi8Sim();
    auto policy = makeConnectedEdgePolicy(sim);
    EXPECT_EQ(policy->name(), "Connected Edge");
    Rng rng(7);
    for (const auto &net : dnn::modelZoo()) {
        const sim::InferenceRequest request = sim::makeRequest(net);
        const Decision decision =
            policy->decide(request, env::EnvState{}, rng);
        EXPECT_EQ(decision.target.place, sim::TargetPlace::ConnectedEdge);
        EXPECT_TRUE(sim.isFeasible(net, decision.target)) << net.name();
    }
}

TEST(Decision, CategoryStrings)
{
    Decision whole = makeTargetDecision(sim::ExecutionTarget{
        sim::TargetPlace::Cloud, platform::ProcKind::ServerGpu, 0,
        dnn::Precision::FP32});
    EXPECT_EQ(whole.category(), "Cloud");

    sim::PartitionSpec spec;
    spec.remotePlace = sim::TargetPlace::Cloud;
    Decision part = makePartitionDecision(spec);
    EXPECT_EQ(part.category(), "Partitioned (Cloud)");
}

TEST(ExecuteDecision, RunsBothDecisionShapes)
{
    const sim::InferenceSimulator sim = mi8Sim();
    const dnn::Network net = dnn::makeMobileNetV1();
    const sim::InferenceRequest request = sim::makeRequest(net);
    Rng rng(8);

    const Decision whole = makeTargetDecision(sim::ExecutionTarget{
        sim::TargetPlace::Local, platform::ProcKind::MobileCpu,
        sim.localDevice().cpu().maxVfIndex(), dnn::Precision::FP32});
    EXPECT_TRUE(
        executeDecision(sim, request, whole, env::EnvState{}, rng)
            .feasible);

    sim::PartitionSpec spec;
    spec.splitLayer = 3;
    spec.localProc = platform::ProcKind::MobileCpu;
    spec.vfIndex = sim.localDevice().cpu().maxVfIndex();
    const Decision part = makePartitionDecision(spec);
    EXPECT_TRUE(
        executeDecision(sim, request, part, env::EnvState{}, rng)
            .feasible);
    // expectedDecision mirrors executeDecision without noise.
    const sim::Outcome a =
        expectedDecision(sim, request, part, env::EnvState{});
    const sim::Outcome b =
        expectedDecision(sim, request, part, env::EnvState{});
    EXPECT_DOUBLE_EQ(a.latencyMs, b.latencyMs);
}

} // namespace
} // namespace autoscale::baselines
