/**
 * @file
 * Tests for the runtime-variance substrate: co-running apps, the
 * interference-to-derate mapping, the thermal model, and the Table IV
 * scenarios.
 */

#include <gtest/gtest.h>

#include "env/interference.h"
#include "env/scenario.h"
#include "env/thermal.h"
#include "platform/device_zoo.h"
#include "util/rng.h"
#include "util/stats.h"

namespace autoscale::env {
namespace {

TEST(Interference, SyntheticAppHoldsItsLevel)
{
    auto app = makeSyntheticApp("hog", 0.85, 0.10);
    Rng rng(2);
    OnlineStats cpu;
    OnlineStats mem;
    for (int i = 0; i < 5000; ++i) {
        const InterferenceLoad load = app->next(rng);
        EXPECT_GE(load.cpuUtil, 0.0);
        EXPECT_LE(load.cpuUtil, 1.0);
        cpu.add(load.cpuUtil);
        mem.add(load.memUtil);
    }
    EXPECT_NEAR(cpu.mean(), 0.85, 0.01);
    EXPECT_NEAR(mem.mean(), 0.10, 0.01);
}

TEST(Interference, MusicPlayerIsLight)
{
    auto app = makeMusicPlayerApp();
    Rng rng(3);
    OnlineStats cpu;
    for (int i = 0; i < 5000; ++i) {
        cpu.add(app->next(rng).cpuUtil);
    }
    EXPECT_LT(cpu.mean(), 0.25);
}

TEST(Interference, WebBrowserIsBursty)
{
    auto app = makeWebBrowserApp();
    Rng rng(4);
    OnlineStats cpu;
    int heavy = 0;
    int light = 0;
    for (int i = 0; i < 5000; ++i) {
        const double u = app->next(rng).cpuUtil;
        cpu.add(u);
        if (u > 0.5) {
            ++heavy;
        }
        if (u < 0.3) {
            ++light;
        }
    }
    // Two distinct modes must both occur.
    EXPECT_GT(heavy, 500);
    EXPECT_GT(light, 500);
    EXPECT_GT(cpu.stddev(), 0.15);
}

TEST(Interference, VaryingAppsSwitchesProfiles)
{
    auto app = makeVaryingApps(10);
    Rng rng(5);
    OnlineStats first;  // music phase
    OnlineStats second; // browser phase
    for (int i = 0; i < 10; ++i) {
        first.add(app->next(rng).cpuUtil);
    }
    for (int i = 0; i < 10; ++i) {
        second.add(app->next(rng).cpuUtil);
    }
    EXPECT_LT(first.mean(), second.mean());
}

TEST(Derate, CleanEnvironmentIsIdentity)
{
    const EnvState clean;
    for (auto kind : {platform::ProcKind::MobileCpu,
                      platform::ProcKind::MobileGpu,
                      platform::ProcKind::MobileDsp}) {
        const platform::Derate derate = derateFor(kind, clean);
        EXPECT_DOUBLE_EQ(derate.freqFactor, 1.0);
        EXPECT_DOUBLE_EQ(derate.bandwidthFactor, 1.0);
    }
}

TEST(Derate, CpuContentionHitsCpuHardest)
{
    EnvState env;
    env.coCpuUtil = 0.85;
    env.thermalFactor = 0.85;
    const auto cpu = derateFor(platform::ProcKind::MobileCpu, env);
    const auto gpu = derateFor(platform::ProcKind::MobileGpu, env);
    const auto dsp = derateFor(platform::ProcKind::MobileDsp, env);
    EXPECT_LT(cpu.freqFactor, 0.55);
    EXPECT_LT(cpu.freqFactor, gpu.freqFactor);
    EXPECT_LT(gpu.freqFactor, dsp.freqFactor + 1e-12);
}

TEST(Derate, MemoryContentionHitsAllLocalProcessors)
{
    EnvState env;
    env.coMemUtil = 0.8;
    for (auto kind : {platform::ProcKind::MobileCpu,
                      platform::ProcKind::MobileGpu,
                      platform::ProcKind::MobileDsp}) {
        const auto derate = derateFor(kind, env);
        EXPECT_LT(derate.freqFactor, 0.75) << static_cast<int>(kind);
        EXPECT_LT(derate.bandwidthFactor, 0.75);
    }
}

TEST(Derate, RemoteProcessorsUnaffected)
{
    EnvState env;
    env.coCpuUtil = 1.0;
    env.coMemUtil = 1.0;
    env.thermalFactor = 0.6;
    for (auto kind : {platform::ProcKind::ServerCpu,
                      platform::ProcKind::ServerGpu}) {
        const auto derate = derateFor(kind, env);
        EXPECT_DOUBLE_EQ(derate.freqFactor, 1.0);
        EXPECT_DOUBLE_EQ(derate.bandwidthFactor, 1.0);
    }
}

TEST(Derate, FactorsStayInValidRange)
{
    EnvState env;
    env.coCpuUtil = 1.0;
    env.coMemUtil = 1.0;
    env.thermalFactor = 0.6;
    for (auto kind : {platform::ProcKind::MobileCpu,
                      platform::ProcKind::MobileGpu,
                      platform::ProcKind::MobileDsp}) {
        const auto derate = derateFor(kind, env);
        EXPECT_GT(derate.freqFactor, 0.0);
        EXPECT_LE(derate.freqFactor, 1.0);
        EXPECT_GT(derate.bandwidthFactor, 0.0);
        EXPECT_LE(derate.bandwidthFactor, 1.0);
    }
}

TEST(BackgroundPower, ScalesWithCoRunnerLoad)
{
    const platform::Device mi8 = platform::makeMi8Pro();
    EnvState idle;
    EXPECT_DOUBLE_EQ(backgroundPowerW(mi8, idle), 0.0);
    EnvState busy;
    busy.coCpuUtil = 0.8;
    busy.coMemUtil = 0.5;
    EXPECT_GT(backgroundPowerW(mi8, busy), 1.0);
}

TEST(Thermal, HeatsTowardSteadyState)
{
    ThermalModel thermal(25.0, 10.0, 1000.0, 65.0, 95.0, 0.6);
    EXPECT_DOUBLE_EQ(thermal.temperatureC(), 25.0);
    for (int i = 0; i < 100; ++i) {
        thermal.advance(5.0, 1000.0);
    }
    // Steady state = 25 + 5 * 10 = 75 C.
    EXPECT_NEAR(thermal.temperatureC(), 75.0, 0.5);
}

TEST(Thermal, CoolsWhenIdle)
{
    ThermalModel thermal;
    thermal.advance(8.0, 60000.0);
    const double hot = thermal.temperatureC();
    thermal.advance(0.0, 60000.0);
    EXPECT_LT(thermal.temperatureC(), hot);
}

TEST(Thermal, ThrottleEngagesAboveOnset)
{
    ThermalModel thermal(25.0, 10.0, 500.0, 65.0, 95.0, 0.6);
    EXPECT_DOUBLE_EQ(thermal.throttleFactor(), 1.0);
    for (int i = 0; i < 100; ++i) {
        thermal.advance(8.0, 1000.0); // steady state 105 C
    }
    EXPECT_LT(thermal.throttleFactor(), 1.0);
    EXPECT_GE(thermal.throttleFactor(), 0.6);
}

TEST(Thermal, ZeroTimeStepIsANoOp)
{
    ThermalModel thermal;
    thermal.advance(8.0, 5000.0);
    const double before = thermal.temperatureC();
    thermal.advance(100.0, 0.0);
    EXPECT_DOUBLE_EQ(thermal.temperatureC(), before);
}

TEST(Thermal, ThrottleSaturatesAtMinFactor)
{
    ThermalModel thermal(25.0, 20.0, 100.0, 65.0, 95.0, 0.6);
    for (int i = 0; i < 200; ++i) {
        thermal.advance(20.0, 1000.0); // steady state 425 C (clamped path)
    }
    EXPECT_DOUBLE_EQ(thermal.throttleFactor(), 0.6);
}

TEST(Scenario, D4SwitchPeriodIsConfigurable)
{
    Rng rng(29);
    auto app = makeVaryingApps(3);
    OnlineStats first;
    OnlineStats second;
    for (int i = 0; i < 3; ++i) {
        first.add(app->next(rng).cpuUtil);
    }
    for (int i = 0; i < 3; ++i) {
        second.add(app->next(rng).cpuUtil);
    }
    EXPECT_LT(first.mean(), second.mean());
}

TEST(Thermal, ResetReturnsToAmbient)
{
    ThermalModel thermal;
    thermal.advance(10.0, 60000.0);
    thermal.reset();
    EXPECT_DOUBLE_EQ(thermal.temperatureC(), 25.0);
    EXPECT_DOUBLE_EQ(thermal.throttleFactor(), 1.0);
}

TEST(Scenario, TableIvEnumeration)
{
    EXPECT_EQ(staticScenarios().size(), 5u);
    EXPECT_EQ(dynamicScenarios().size(), 4u);
    EXPECT_EQ(allScenarios().size(), 9u);
    EXPECT_FALSE(isDynamicScenario(ScenarioId::S1));
    EXPECT_TRUE(isDynamicScenario(ScenarioId::D3));
    EXPECT_STREQ(scenarioName(ScenarioId::S4), "S4");
    EXPECT_STREQ(scenarioDescription(ScenarioId::S2),
                 "CPU-intensive co-running app");
}

class ScenarioStates : public ::testing::TestWithParam<ScenarioId> {};

TEST_P(ScenarioStates, ProducesValidEnvStates)
{
    Scenario scenario(GetParam());
    Rng rng(7);
    for (int i = 0; i < 200; ++i) {
        const EnvState env = scenario.next(rng);
        EXPECT_GE(env.coCpuUtil, 0.0);
        EXPECT_LE(env.coCpuUtil, 1.0);
        EXPECT_GE(env.coMemUtil, 0.0);
        EXPECT_LE(env.coMemUtil, 1.0);
        EXPECT_LE(env.rssiWlanDbm, -40.0);
        EXPECT_GE(env.rssiWlanDbm, -95.0);
        EXPECT_GT(env.thermalFactor, 0.0);
        EXPECT_LE(env.thermalFactor, 1.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllScenarios, ScenarioStates,
    ::testing::Values(ScenarioId::S1, ScenarioId::S2, ScenarioId::S3,
                      ScenarioId::S4, ScenarioId::S5, ScenarioId::D1,
                      ScenarioId::D2, ScenarioId::D3, ScenarioId::D4));

TEST(Scenario, S1HasNoVariance)
{
    // No co-runner and constant signals: every sample is the same, and
    // none consumes a draw.
    Scenario scenario(ScenarioId::S1);
    Rng rng(11);
    for (int i = 0; i < 10; ++i) {
        const EnvState env = scenario.next(rng);
        EXPECT_DOUBLE_EQ(env.coCpuUtil, 0.0);
        EXPECT_DOUBLE_EQ(env.coMemUtil, 0.0);
        EXPECT_GT(env.rssiWlanDbm, -80.0);
        EXPECT_GT(env.rssiP2pDbm, -80.0);
    }
    Rng untouched(11);
    EXPECT_EQ(rng.next(), untouched.next());
}

TEST(Scenario, S2IsCpuHeavyS3IsMemoryHeavy)
{
    Rng rng(13);
    Scenario s2(ScenarioId::S2);
    Scenario s3(ScenarioId::S3);
    const EnvState e2 = s2.next(rng);
    const EnvState e3 = s3.next(rng);
    EXPECT_GT(e2.coCpuUtil, 0.7);
    EXPECT_LT(e2.coMemUtil, 0.3);
    EXPECT_GT(e3.coMemUtil, 0.6);
    EXPECT_LT(e3.coCpuUtil, 0.4);
    // Sustained CPU hog erodes thermal headroom.
    EXPECT_LT(e2.thermalFactor, 1.0);
}

TEST(Scenario, S4S5WeakenTheRightLink)
{
    Rng rng(17);
    Scenario s4(ScenarioId::S4);
    Scenario s5(ScenarioId::S5);
    const EnvState e4 = s4.next(rng);
    const EnvState e5 = s5.next(rng);
    EXPECT_LE(e4.rssiWlanDbm, -80.0);
    EXPECT_GT(e4.rssiP2pDbm, -80.0);
    EXPECT_LE(e5.rssiP2pDbm, -80.0);
    EXPECT_GT(e5.rssiWlanDbm, -80.0);
}

TEST(Scenario, D3VariesWlanSignal)
{
    Scenario d3(ScenarioId::D3);
    Rng rng(19);
    OnlineStats rssi;
    for (int i = 0; i < 2000; ++i) {
        rssi.add(d3.next(rng).rssiWlanDbm);
    }
    EXPECT_GT(rssi.stddev(), 4.0);
}

TEST(Scenario, D4SwitchesCoRunnerIntensity)
{
    Scenario d4(ScenarioId::D4);
    Rng rng(23);
    OnlineStats first;
    OnlineStats second;
    for (int i = 0; i < 25; ++i) {
        first.add(d4.next(rng).coCpuUtil);
    }
    for (int i = 0; i < 25; ++i) {
        second.add(d4.next(rng).coCpuUtil);
    }
    EXPECT_LT(first.mean(), second.mean());
}

} // namespace
} // namespace autoscale::env
