#include "env/scenario.h"

#include <algorithm>
#include <array>

#include "net/rssi_process.h"
#include "util/logging.h"

namespace autoscale::env {

namespace {

/** One scenario's Wi-Fi (cloud) and Wi-Fi Direct (edge) signal. */
struct LinkSignals {
    net::RssiProcess wlan;
    net::RssiProcess p2p;
};

constexpr net::RssiProcess kRegularRssi = net::RssiProcess::constant(-55.0);
constexpr net::RssiProcess kWeakRssi = net::RssiProcess::constant(-85.0);
/**
 * D3's Gaussian Wi-Fi RSSI as in Section V-B; mean near the weak
 * threshold so both regular and weak states occur.
 */
constexpr net::RssiProcess kRandomRssi =
    net::RssiProcess::gaussian(-72.0, 9.0);

/** Table IV's signals, indexed by ScenarioId (declaration order). */
constexpr std::array<LinkSignals, 9> kLinkSignals = {{
    {kRegularRssi, kRegularRssi}, // S1
    {kRegularRssi, kRegularRssi}, // S2
    {kRegularRssi, kRegularRssi}, // S3
    {kWeakRssi, kRegularRssi},    // S4
    {kRegularRssi, kWeakRssi},    // S5
    {kRegularRssi, kRegularRssi}, // D1
    {kRegularRssi, kRegularRssi}, // D2
    {kRandomRssi, kRegularRssi},  // D3
    {kRegularRssi, kRegularRssi}, // D4
}};
static_assert(kLinkSignals.size()
              == static_cast<std::size_t>(ScenarioId::D4) + 1);

} // namespace

const char *
scenarioName(ScenarioId id)
{
    switch (id) {
      case ScenarioId::S1: return "S1";
      case ScenarioId::S2: return "S2";
      case ScenarioId::S3: return "S3";
      case ScenarioId::S4: return "S4";
      case ScenarioId::S5: return "S5";
      case ScenarioId::D1: return "D1";
      case ScenarioId::D2: return "D2";
      case ScenarioId::D3: return "D3";
      case ScenarioId::D4: return "D4";
    }
    panic("scenarioName: unknown id");
}

const char *
scenarioDescription(ScenarioId id)
{
    switch (id) {
      case ScenarioId::S1: return "No runtime variance";
      case ScenarioId::S2: return "CPU-intensive co-running app";
      case ScenarioId::S3: return "Memory-intensive co-running app";
      case ScenarioId::S4: return "Weak Wi-Fi signal";
      case ScenarioId::S5: return "Weak Wi-Fi Direct signal";
      case ScenarioId::D1: return "Co-running app: music player";
      case ScenarioId::D2: return "Co-running app: web browser";
      case ScenarioId::D3: return "Random Wi-Fi signal";
      case ScenarioId::D4: return "Varying co-running apps";
    }
    panic("scenarioDescription: unknown id");
}

bool
isDynamicScenario(ScenarioId id)
{
    switch (id) {
      case ScenarioId::D1:
      case ScenarioId::D2:
      case ScenarioId::D3:
      case ScenarioId::D4:
        return true;
      default:
        return false;
    }
}

std::vector<ScenarioId>
staticScenarios()
{
    return {ScenarioId::S1, ScenarioId::S2, ScenarioId::S3, ScenarioId::S4,
            ScenarioId::S5};
}

std::vector<ScenarioId>
dynamicScenarios()
{
    return {ScenarioId::D1, ScenarioId::D2, ScenarioId::D3, ScenarioId::D4};
}

std::vector<ScenarioId>
allScenarios()
{
    auto ids = staticScenarios();
    const auto dynamic = dynamicScenarios();
    ids.insert(ids.end(), dynamic.begin(), dynamic.end());
    return ids;
}

Scenario::Scenario(ScenarioId id)
    : Scenario(id, fault::FaultPlan{})
{
}

Scenario::Scenario(ScenarioId id, const fault::FaultPlan &faults)
    : id_(id)
{
    if (faults.enabled()) {
        faults_ = std::make_unique<fault::FaultInjector>(faults);
    }
    switch (id_) {
      case ScenarioId::S1:
      case ScenarioId::S4:
      case ScenarioId::S5:
      case ScenarioId::D3:
        break;
      case ScenarioId::S2:
        app_ = makeSyntheticApp("cpu hog", 0.85, 0.10);
        break;
      case ScenarioId::S3:
        app_ = makeSyntheticApp("memory hog", 0.20, 0.80);
        break;
      case ScenarioId::D1:
        app_ = makeMusicPlayerApp();
        break;
      case ScenarioId::D2:
        app_ = makeWebBrowserApp();
        break;
      case ScenarioId::D4:
        app_ = makeVaryingApps();
        break;
    }
}

EnvState
Scenario::next(Rng &rng)
{
    EnvState state;
    if (app_ != nullptr) {
        const InterferenceLoad load = app_->next(rng);
        state.coCpuUtil = load.cpuUtil;
        state.coMemUtil = load.memUtil;
    }
    const LinkSignals &signals =
        kLinkSignals[static_cast<std::size_t>(id_)];
    state.rssiWlanDbm = signals.wlan.sample(rng);
    state.rssiP2pDbm = signals.p2p.sample(rng);
    // Sustained co-runner heat erodes the thermal headroom; a steady
    // CPU hog causes the frequent throttling observed in Fig. 5.
    state.thermalFactor =
        std::clamp(1.0 - 0.18 * state.coCpuUtil, 0.6, 1.0);
    if (faults_ != nullptr) {
        state.fault = faults_->next();
        // Scheduled co-runner surges floor the interference fields
        // before anything derived from them; a raised CPU floor also
        // re-derives the thermal headroom it erodes. Zero floors take
        // neither branch, leaving the pre-surge code path bit-exact.
        if (state.fault.coCpuFloor > state.coCpuUtil) {
            state.coCpuUtil = state.fault.coCpuFloor;
            state.thermalFactor =
                std::clamp(1.0 - 0.18 * state.coCpuUtil, 0.6, 1.0);
        }
        if (state.fault.coMemFloor > state.coMemUtil) {
            state.coMemUtil = state.fault.coMemFloor;
        }
        // Signal fades and throttle events act through the existing
        // graceful-variance fields; brownout/drop conditions stay on
        // state.fault for the simulator's retry semantics. A blacked-out
        // link has no carrier, so its RSSI reads the floor — which is
        // also what lets a Table I state encoder observe the outage
        // (and keeps the healthy-signal bins' Q-values intact for when
        // the link returns).
        state.rssiWlanDbm = std::max(
            -95.0, state.rssiWlanDbm - state.fault.wlanRssiDropDb);
        state.rssiP2pDbm = std::max(
            -95.0, state.rssiP2pDbm - state.fault.p2pRssiDropDb);
        if (state.fault.wlanBlackout) {
            state.rssiWlanDbm = -95.0;
        }
        if (state.fault.p2pBlackout) {
            state.rssiP2pDbm = -95.0;
        }
        state.thermalFactor = std::min(
            state.thermalFactor, state.fault.localThrottleFactor);
    }
    return state;
}

} // namespace autoscale::env
