/**
 * @file
 * Tests for the online serving loop (DESIGN.md §12): determinism,
 * bounded queues under overload, the degradation ladder, breaker
 * behaviour during a blackout, and checkpoint/resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "dnn/model_zoo.h"
#include "obs/metrics_registry.h"
#include "platform/device_zoo.h"
#include "serve/compact_metrics.h"
#include "serve/server.h"
#include "sim/simulator.h"

namespace autoscale::serve {
namespace {

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

/** Config with the arrival rate set as a multiple of local capacity. */
ServeConfig
configAtRate(double rateX, std::int64_t requests)
{
    ServeConfig config;
    config.totalRequests = requests;
    config.trainRunsPerCombo = 20;
    config.seed = 7;
    const double nominal =
        nominalServiceMs(testSim(), allNetworks(), 50.0);
    config.arrival.ratePerSec = rateX * 1000.0 / nominal;
    return config;
}

std::string
dominantCategory(const ServeStats &stats)
{
    std::string best;
    std::int64_t count = -1;
    for (const auto &[category, n] : stats.categoryCounts) {
        if (n > count) {
            best = category;
            count = n;
        }
    }
    return best;
}

TEST(Serve, RerunsAreByteIdentical)
{
    const ServeConfig config = configAtRate(1.5, 250);
    const ServeStats a = runServe(testSim(), config);
    const ServeStats b = runServe(testSim(), config);
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.shedDeadline, b.shedDeadline);
    EXPECT_EQ(a.shedOverflow, b.shedOverflow);
    EXPECT_EQ(a.shedStale, b.shedStale);
    EXPECT_EQ(a.qosViolations, b.qosViolations);
    // Bitwise-equal floats: the loop must be deterministic, not just
    // statistically similar.
    EXPECT_EQ(a.energyJ, b.energyJ);
    EXPECT_EQ(a.wastedEnergyJ, b.wastedEnergyJ);
    EXPECT_EQ(a.endClockMs, b.endClockMs);
    ASSERT_EQ(a.latenciesMs.size(), b.latenciesMs.size());
    for (std::size_t i = 0; i < a.latenciesMs.size(); ++i) {
        EXPECT_EQ(a.latenciesMs[i], b.latenciesMs[i]) << i;
    }
    EXPECT_EQ(a.categoryCounts, b.categoryCounts);
}

TEST(Serve, EveryArrivalIsAccountedFor)
{
    const ServeStats stats = runServe(testSim(), configAtRate(2.0, 300));
    EXPECT_EQ(stats.arrivals, 300);
    EXPECT_EQ(stats.admitted + stats.shedDeadline + stats.shedOverflow,
              stats.arrivals);
    EXPECT_EQ(stats.served + stats.shedStale, stats.admitted);
}

TEST(Serve, OverloadKeepsQueueAndWaitsBounded)
{
    // Sustained 4x overload: the queue must stay within its configured
    // bound and accepted requests must not accumulate unbounded wait.
    ServeConfig config = configAtRate(4.0, 400);
    config.admission.maxDepth = 16;
    const ServeStats stats = runServe(testSim(), config);
    EXPECT_LE(stats.maxQueueDepth, 16u);
    EXPECT_GT(stats.served, 0);
    const std::int64_t shed =
        stats.shedDeadline + stats.shedOverflow + stats.shedStale;
    EXPECT_GT(shed, 0);
    // Queueing delay is what admission control bounds: the mean wait
    // must stay near one service time even at 4x overload (the tail of
    // total latency is execution variance, not queueing).
    EXPECT_LT(stats.meanWaitMs(), 4.0 * stats.meanServiceMs() + 100.0);
}

TEST(Serve, DegradationLadderEngagesBeforeDropping)
{
    // A remote-only policy under overload with an aggressive degrade
    // threshold: queued-up requests get forced onto the local variant.
    ServeConfig config = configAtRate(2.0, 300);
    config.policyName = "cloud";
    config.admission.degradeDepth = 1;
    const ServeStats stats = runServe(testSim(), config);
    EXPECT_GT(stats.degraded, 0);
}

TEST(Serve, BreakerCapsWastedEnergyDuringBlackout)
{
    // Remote-heavy traffic through a blackout (both links down for
    // fault steps 150-449). Without the breaker every in-outage
    // request burns the full timeout+retry budget; with it only the
    // opening failure and bounded half-open probes pay.
    ServeConfig config = configAtRate(0.5, 600);
    config.scenario = env::ScenarioId::S1;
    config.policyName = "cloud";
    config.faults = fault::FaultPlan::fromName("blackout");

    config.breakerEnabled = true;
    const ServeStats with = runServe(testSim(), config);
    config.breakerEnabled = false;
    const ServeStats without = runServe(testSim(), config);

    EXPECT_GE(with.wlanBreaker.opens, 1);
    EXPECT_GT(with.breakerShortCircuits, 0);
    EXPECT_GT(without.wastedEnergyJ, 0.0);
    // The acceptance bar: wasted remote-attempt energy collapses to
    // about one retry cycle (plus probes) per outage.
    EXPECT_LT(with.wastedEnergyJ, 0.5 * without.wastedEnergyJ);
    // Each wasted cycle is at most one full retry ladder; the breaker
    // run's total must fit in (opens + probes) such cycles.
    const double cycleJ =
        without.wastedEnergyJ
        / static_cast<double>(std::max<std::int64_t>(
            1, without.faultFallbacks));
    const double cycles = static_cast<double>(
        with.wlanBreaker.opens + with.wlanBreaker.probes
        + with.p2pBreaker.opens + with.p2pBreaker.probes);
    EXPECT_LE(with.wastedEnergyJ, cycles * cycleJ + cycleJ);
}

TEST(Serve, CheckpointResumeRestoresStepAndConverges)
{
    const std::string path =
        testing::TempDir() + "autoscale_serve_resume.ckpt";
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());

    // The uninterrupted reference run.
    ServeConfig full = configAtRate(1.0, 400);
    const ServeStats reference = runServe(testSim(), full);

    // The same run "killed" after 200 arrivals, then resumed.
    ServeConfig first = full;
    first.totalRequests = 200;
    first.checkpointPath = path;
    first.checkpointIntervalRequests = 20;
    const ServeStats before = runServe(testSim(), first);
    EXPECT_GT(before.checkpointsWritten, 0);

    ServeConfig second = full;
    second.totalRequests = 200;
    second.checkpointPath = path;
    second.checkpointIntervalRequests = 20;
    second.resume = true;
    const ServeStats after = runServe(testSim(), second);
    EXPECT_TRUE(after.resumed);
    EXPECT_EQ(after.resumeSource, CheckpointSource::Primary);
    EXPECT_EQ(after.resumeStep, before.served);
    EXPECT_EQ(after.corruptCheckpoints, 0);

    // The resumed learner settles into the same steady-state decision
    // mix as the uninterrupted run.
    EXPECT_EQ(dominantCategory(after), dominantCategory(reference));
}

TEST(Serve, ResumeWithoutACheckpointIsAColdStart)
{
    const std::string path =
        testing::TempDir() + "autoscale_serve_cold.ckpt";
    std::remove(path.c_str());
    std::remove((path + ".prev").c_str());
    ServeConfig config = configAtRate(1.0, 120);
    config.checkpointPath = path;
    config.resume = true;
    const ServeStats stats = runServe(testSim(), config);
    EXPECT_FALSE(stats.resumed);
    EXPECT_EQ(stats.resumeSource, CheckpointSource::None);
    EXPECT_GT(stats.checkpointsWritten, 0);
}

TEST(AdmissionQueue, MaxDepthSeenTracksPushHighWater)
{
    // Regression: the high-water mark is taken at push time, so a burst
    // that fills the queue and is then fully shed/drained still reports
    // the true peak (not the depth at the last pop).
    AdmissionConfig config;
    config.maxDepth = 8;
    AdmissionQueue queue(config);
    for (int i = 0; i < 8; ++i) {
        const QueuedRequest request{i, 0.0, 1e9, 0};
        EXPECT_EQ(queue.offer(request, 0.0, 1.0, 1.0),
                  AdmissionVerdict::Admitted);
    }
    EXPECT_EQ(queue.maxDepthSeen(), 8u);

    // Overflow sheds don't grow the queue or the high-water mark.
    const QueuedRequest overflow{99, 0.0, 1e9, 0};
    EXPECT_EQ(queue.offer(overflow, 0.0, 1.0, 1.0),
              AdmissionVerdict::ShedOverflow);
    EXPECT_EQ(queue.depth(), 8u);
    EXPECT_EQ(queue.maxDepthSeen(), 8u);

    // Fully drain: the mark must survive at the burst's peak.
    while (!queue.empty()) {
        queue.pop();
    }
    EXPECT_EQ(queue.maxDepthSeen(), 8u);

    // Refill shallower: the mark is a lifetime max, never lowered.
    const QueuedRequest late{100, 0.0, 1e9, 0};
    EXPECT_EQ(queue.offer(late, 0.0, 1.0, 1.0),
              AdmissionVerdict::Admitted);
    EXPECT_EQ(queue.maxDepthSeen(), 8u);
}

TEST(AdmissionQueue, PeekedPrefixSurvivesAppends)
{
    // at(i) peeks without removal, and later offers (push_back only)
    // never move the queued prefix.
    AdmissionQueue queue(AdmissionConfig{});
    for (int i = 0; i < 3; ++i) {
        const QueuedRequest request{i, static_cast<double>(i), 1e9, i};
        ASSERT_EQ(queue.offer(request, 0.0, 1.0, 1.0),
                  AdmissionVerdict::Admitted);
    }
    EXPECT_EQ(queue.at(0).id, 0);
    EXPECT_EQ(queue.at(2).id, 2);
    EXPECT_EQ(queue.depth(), 3u);

    const QueuedRequest late{7, 3.0, 1e9, 7};
    ASSERT_EQ(queue.offer(late, 0.0, 1.0, 1.0),
              AdmissionVerdict::Admitted);
    EXPECT_EQ(queue.at(0).id, 0);
    EXPECT_EQ(queue.at(1).id, 1);
    EXPECT_EQ(queue.at(2).id, 2);
    EXPECT_EQ(queue.at(3).id, 7);
    EXPECT_EQ(queue.pop().id, 0);
    EXPECT_EQ(queue.at(0).id, 1);
}

TEST(ServeMetrics, OneBucketTableForRegistryAndRecorder)
{
    // The recorder's bucket tables are the registry's defaults: if
    // either side changes alone, latency and energy histograms from
    // serving and from the rest of the system stop lining up.
    auto asVector = [](const auto &bounds) {
        return std::vector<double>(bounds.begin(), bounds.end());
    };
    EXPECT_EQ(asVector(CompactServeMetrics::kLatencyBoundsMs),
              obs::MetricsRegistry::latencyBucketsMs());
    EXPECT_EQ(asVector(CompactServeMetrics::kEnergyBoundsMj),
              obs::MetricsRegistry::energyBucketsMj());

    // declareServeHistograms declares exactly what a flush creates, so
    // declaring up front changes no exported byte.
    CompactServeMetrics block;
    block.recordShed(kShedDeadline, 3);
    block.recordServed(sim::TargetCategoryId::Cloud, true, false, false, true,
                       4.0, 40.0, 12.5, 1);
    obs::MetricsRegistry declared;
    declareServeHistograms(declared);
    EXPECT_EQ(declared.histogram("serve.latency_ms").upperBounds,
              asVector(CompactServeMetrics::kLatencyBoundsMs));
    EXPECT_EQ(declared.histogram("serve.wait_ms").upperBounds,
              asVector(CompactServeMetrics::kLatencyBoundsMs));
    EXPECT_EQ(declared.histogram("serve.energy_mj").upperBounds,
              asVector(CompactServeMetrics::kEnergyBoundsMj));
    EXPECT_EQ(declared.histogram("serve.queue_depth").upperBounds,
              asVector(CompactServeMetrics::kQueueDepthBounds));
    obs::MetricsRegistry fresh;
    block.flush(declared);
    block.flush(fresh);
    std::ostringstream declaredText;
    declared.writeText(declaredText);
    std::ostringstream freshText;
    fresh.writeText(freshText);
    EXPECT_EQ(declaredText.str(), freshText.str());
}

TEST(ServeDeath, FixedPoliciesCannotCheckpoint)
{
    ServeConfig config = configAtRate(1.0, 50);
    config.policyName = "cloud";
    config.checkpointPath = testing::TempDir() + "nope.ckpt";
    EXPECT_EXIT({ runServe(testSim(), config); },
                ::testing::ExitedWithCode(1), "autoscale policy only");
}

TEST(ServeDeath, UnknownPolicyIsFatal)
{
    ServeConfig config = configAtRate(1.0, 50);
    config.policyName = "oracle-of-delphi";
    EXPECT_EXIT({ runServe(testSim(), config); },
                ::testing::ExitedWithCode(1), "unknown policy");
}

} // namespace
} // namespace autoscale::serve
