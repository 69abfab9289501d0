/**
 * @file
 * The nine DNN inference execution environments of Table IV. Static
 * scenarios fix the runtime variance; dynamic scenarios evolve it
 * per-inference through co-runner traces and RSSI processes.
 */

#ifndef AUTOSCALE_ENV_SCENARIO_H_
#define AUTOSCALE_ENV_SCENARIO_H_

#include <memory>
#include <string>
#include <vector>

#include "env/env_state.h"
#include "env/interference.h"
#include "fault/fault_injector.h"
#include "util/rng.h"

namespace autoscale::env {

/** Table IV environment identifiers. */
enum class ScenarioId {
    S1, ///< No runtime variance.
    S2, ///< CPU-intensive co-running app.
    S3, ///< Memory-intensive co-running app.
    S4, ///< Weak Wi-Fi signal.
    S5, ///< Weak Wi-Fi Direct signal.
    D1, ///< Co-running app: music player.
    D2, ///< Co-running app: web browser.
    D3, ///< Random Wi-Fi signal.
    D4, ///< Varying co-running apps.
};

/** Short identifier ("S1".."D4"). */
const char *scenarioName(ScenarioId id);

/** Table IV description. */
const char *scenarioDescription(ScenarioId id);

/** Whether the scenario is one of the dynamic environments D1-D4. */
bool isDynamicScenario(ScenarioId id);

/** All static scenarios in table order. */
std::vector<ScenarioId> staticScenarios();

/** All dynamic scenarios in table order. */
std::vector<ScenarioId> dynamicScenarios();

/** All Table IV scenarios in table order. */
std::vector<ScenarioId> allScenarios();

/**
 * A Table IV environment: produces one EnvState per inference. The
 * links' RSSI processes are plain values read from a constexpr table
 * keyed by the scenario (only D3's Wi-Fi draws); the object owns only
 * what keeps state: a co-runner (S2/S3, D1/D2/D4; null, drawing
 * nothing, when there is none) and the fault injector. Stateful for the
 * dynamic scenarios, so one instance should drive one experiment run.
 */
class Scenario {
  public:
    explicit Scenario(ScenarioId id);

    /**
     * Scenario with a fault plan layered on top of its graceful
     * variance. The injector runs on its own RNG stream (seeded from
     * the plan), so the base environment samples are identical with
     * and without faults; RSSI floor drops and throttle events fold
     * into the matching EnvState fields, the rest lands in
     * EnvState::fault. A disabled plan behaves exactly like the
     * single-argument constructor.
     */
    Scenario(ScenarioId id, const fault::FaultPlan &faults);

    ScenarioId id() const { return id_; }
    const char *name() const { return scenarioName(id_); }

    /** Whether a fault plan is active on this scenario. */
    bool injectingFaults() const { return faults_ != nullptr; }

    /** Runtime-variance snapshot for the next inference. */
    EnvState next(Rng &rng);

  private:
    ScenarioId id_;
    /** The co-runner; null when there is none (S1, S4, S5, D3). */
    std::unique_ptr<CoRunningApp> app_;
    std::unique_ptr<fault::FaultInjector> faults_;
};

} // namespace autoscale::env

#endif // AUTOSCALE_ENV_SCENARIO_H_
