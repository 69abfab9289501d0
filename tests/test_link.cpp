/**
 * @file
 * Tests for the wireless link model (net/link.h) and RSSI processes:
 * rate collapse at weak signal, signal-strength-dependent radio power
 * (Eq. 4), and transfer latency/energy accounting.
 */

#include <gtest/gtest.h>

#include "dnn/model_zoo.h"
#include "net/link.h"
#include "platform/device_zoo.h"
#include "sim/simulator.h"
#include "net/rssi_process.h"
#include "util/rng.h"
#include "util/stats.h"

namespace autoscale::net {
namespace {

TEST(WirelessLink, RateIsMonotoneInRssi)
{
    const WirelessLink wlan = WirelessLink::defaultWlan();
    double previous = 0.0;
    for (double rssi = -95.0; rssi <= -40.0; rssi += 1.0) {
        const double rate = wlan.dataRateMbps(rssi);
        EXPECT_GE(rate, previous);
        previous = rate;
    }
}

TEST(WirelessLink, StrongSignalSaturates)
{
    const WirelessLink wlan = WirelessLink::defaultWlan();
    EXPECT_GT(wlan.dataRateMbps(-50.0), 0.95 * wlan.maxRateMbps());
}

TEST(WirelessLink, WeakSignalCollapsesExponentially)
{
    // Below the -80 dBm weak threshold the rate should fall off hard:
    // the paper's "data transmission latency increases exponentially".
    const WirelessLink wlan = WirelessLink::defaultWlan();
    const double regular = wlan.dataRateMbps(-60.0);
    const double weak = wlan.dataRateMbps(kWeakRssiDbm - 5.0);
    EXPECT_LT(weak, 0.3 * regular);
    const double very_weak = wlan.dataRateMbps(-92.0);
    EXPECT_LT(very_weak, 0.1 * regular);
    EXPECT_GE(very_weak, 0.5); // MCS floor, never zero
}

TEST(WirelessLink, TxPowerRisesAtWeakSignal)
{
    const WirelessLink wlan = WirelessLink::defaultWlan();
    EXPECT_GT(wlan.txPowerW(-90.0), wlan.txPowerW(-80.0));
    EXPECT_GT(wlan.txPowerW(-80.0), wlan.txPowerW(-60.0));
    EXPECT_DOUBLE_EQ(wlan.txPowerW(-50.0), wlan.txPowerW(-60.0));
    EXPECT_GT(wlan.rxPowerW(-90.0), wlan.rxPowerW(-60.0));
}

TEST(WirelessLink, TransferLatencyMatchesRate)
{
    const WirelessLink wlan = WirelessLink::defaultWlan();
    const double rssi = -55.0;
    const std::uint64_t tx_bytes = 150 * 1024;
    const TransferResult result = wlan.transfer(tx_bytes, 4096, rssi);
    // txMs = bits / (Mbps * 1e3 bits per ms).
    const double expected_tx = static_cast<double>(tx_bytes) * 8.0
        / (wlan.dataRateMbps(rssi) * 1e3);
    EXPECT_NEAR(result.txMs, expected_tx, expected_tx * 1e-9);
    EXPECT_GT(result.txMs, result.rxMs);
    EXPECT_DOUBLE_EQ(result.fixedMs, wlan.fixedRttMs());
    EXPECT_NEAR(result.totalMs(),
                result.txMs + result.rxMs + result.fixedMs, 1e-12);
}

TEST(WirelessLink, TransferEnergyFollowsEq4)
{
    const WirelessLink wlan = WirelessLink::defaultWlan();
    const double rssi = -70.0;
    const TransferResult result = wlan.transfer(100'000, 10'000, rssi);
    const double expected = wlan.txPowerW(rssi) * result.txMs * 1e-3
        + wlan.rxPowerW(rssi) * result.rxMs * 1e-3;
    EXPECT_NEAR(result.energyJ, expected, 1e-12);
}

TEST(WirelessLink, WeakSignalCostsMoreTimeAndEnergy)
{
    const WirelessLink wlan = WirelessLink::defaultWlan();
    const TransferResult strong = wlan.transfer(150'000, 4'096, -55.0);
    const TransferResult weak = wlan.transfer(150'000, 4'096, -85.0);
    EXPECT_GT(weak.totalMs(), 2.0 * strong.totalMs());
    EXPECT_GT(weak.energyJ, 3.0 * strong.energyJ);
}

TEST(WirelessLink, P2pHasLowerProtocolOverheadThanWlan)
{
    EXPECT_LT(WirelessLink::defaultP2p().fixedRttMs(),
              WirelessLink::defaultWlan().fixedRttMs());
}

TEST(WirelessLink, CellularPresetsAreOrderedSensibly)
{
    const WirelessLink wifi = WirelessLink::defaultWlan();
    const WirelessLink lte = WirelessLink::lte();
    const WirelessLink fiveg = WirelessLink::fiveG();
    EXPECT_LT(lte.maxRateMbps(), wifi.maxRateMbps());
    EXPECT_GT(fiveg.maxRateMbps(), wifi.maxRateMbps());
    EXPECT_GT(lte.fixedRttMs(), wifi.fixedRttMs());
    EXPECT_LT(fiveg.fixedRttMs(), wifi.fixedRttMs());
    // A 150 KB image upload: 5G < Wi-Fi < LTE end-to-end.
    const double wifi_ms = wifi.transfer(150'000, 4'096, -55.0).totalMs();
    const double lte_ms = lte.transfer(150'000, 4'096, -55.0).totalMs();
    const double fiveg_ms =
        fiveg.transfer(150'000, 4'096, -55.0).totalMs();
    EXPECT_LT(fiveg_ms, wifi_ms);
    EXPECT_LT(wifi_ms, lte_ms);
}

TEST(WirelessLink, CellularCloudPathStillSchedulable)
{
    // The simulator accepts any WLAN-kind link: an LTE-backed system
    // shifts the edge/cloud crossover but stays consistent.
    const sim::InferenceSimulator wifi_sim =
        sim::InferenceSimulator::makeDefault(platform::makeMi8Pro());
    const sim::InferenceSimulator lte_sim(
        platform::makeMi8Pro(), platform::makeGalaxyTabS6(),
        platform::makeCloudServer(), WirelessLink::lte(),
        WirelessLink::defaultP2p());
    const dnn::Network &net = dnn::findModel("MobileBERT");
    const sim::ExecutionTarget cloud{
        sim::TargetPlace::Cloud, platform::ProcKind::ServerGpu,
        lte_sim.cloudDevice().gpu().maxVfIndex(), dnn::Precision::FP32};
    const env::EnvState env;
    const double wifi_ms =
        wifi_sim.expected(net, cloud, env).latencyMs;
    const double lte_ms = lte_sim.expected(net, cloud, env).latencyMs;
    EXPECT_GT(lte_ms, wifi_ms);
    // Even over LTE, MobileBERT's 100 ms translation QoS is met.
    EXPECT_LT(lte_ms, 100.0);
}

TEST(WirelessLink, KindNames)
{
    EXPECT_STREQ(linkKindName(LinkKind::Wlan), "Wi-Fi");
    EXPECT_STREQ(linkKindName(LinkKind::PeerToPeer), "Wi-Fi Direct");
}

TEST(RssiProcess, ConstantReturnsFixedValue)
{
    const RssiProcess rssi = RssiProcess::constant(-77.5);
    Rng rng(1);
    for (int i = 0; i < 10; ++i) {
        EXPECT_DOUBLE_EQ(rssi.sample(rng), -77.5);
    }
}

TEST(RssiProcess, GaussianMomentsAndClamp)
{
    // Section V-B: signal strength variance is modeled by a Gaussian.
    const RssiProcess rssi = RssiProcess::gaussian(-70.0, 8.0, -95.0, -40.0);
    Rng rng(3);
    OnlineStats stats;
    for (int i = 0; i < 50000; ++i) {
        const double v = rssi.sample(rng);
        EXPECT_GE(v, -95.0);
        EXPECT_LE(v, -40.0);
        stats.add(v);
    }
    EXPECT_NEAR(stats.mean(), -70.0, 0.2);
    EXPECT_NEAR(stats.stddev(), 8.0, 0.3);
}

TEST(RssiProcess, GaussianProducesBothWeakAndRegularStates)
{
    // D3 must exercise both S_RSSI_W bins.
    const RssiProcess rssi = RssiProcess::gaussian(-78.0, 8.0);
    Rng rng(5);
    int weak = 0;
    int regular = 0;
    for (int i = 0; i < 1000; ++i) {
        if (rssi.sample(rng) <= kWeakRssiDbm) {
            ++weak;
        } else {
            ++regular;
        }
    }
    EXPECT_GT(weak, 100);
    EXPECT_GT(regular, 100);
}

} // namespace
} // namespace autoscale::net
