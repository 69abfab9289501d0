/**
 * @file
 * On-device interference from co-running applications (Section III-B).
 *
 * Two pieces:
 *  - CoRunningApp: generators for the co-runner workloads of Table IV —
 *    synthetic CPU/memory hogs (S2/S3), a music player (D1), a web
 *    browser with bursty page loads (D2), and a switching mixture (D4).
 *  - Derate mapping: how a given interference level degrades each local
 *    processor (CPU time-sharing, shared memory-bandwidth contention,
 *    thermal throttling), reproducing the Fig. 5 target shifts.
 */

#ifndef AUTOSCALE_ENV_INTERFERENCE_H_
#define AUTOSCALE_ENV_INTERFERENCE_H_

#include <memory>
#include <string>

#include "env/env_state.h"
#include "platform/device.h"
#include "platform/processor.h"
#include "util/rng.h"

namespace autoscale::env {

/** Instantaneous resource pressure of co-running applications. */
struct InterferenceLoad {
    double cpuUtil = 0.0;
    double memUtil = 0.0;
};

/** Generator of per-inference interference samples. */
class CoRunningApp {
  public:
    virtual ~CoRunningApp() = default;

    /** Name for reports. */
    virtual const char *name() const = 0;

    /** Next interference sample. */
    virtual InterferenceLoad next(Rng &rng) = 0;
};

/** Constant-pressure synthetic app (S2: cpu-heavy, S3: memory-heavy). */
std::unique_ptr<CoRunningApp> makeSyntheticApp(std::string name,
                                               double cpuUtil,
                                               double memUtil);

/** Music player: light, steady CPU and memory pressure (D1). */
std::unique_ptr<CoRunningApp> makeMusicPlayerApp();

/**
 * Web browser: two-state (reading/loading) Markov process producing
 * bursty CPU and memory pressure (D2). Input events are generated the
 * way the paper's automatic input generator drives its browser.
 */
std::unique_ptr<CoRunningApp> makeWebBrowserApp();

/** Switches from music player to web browser mid-run (D4). */
std::unique_ptr<CoRunningApp> makeVaryingApps(int switchEvery = 25);

/**
 * Environmental de-rating of each local processor kind.
 *
 * CPU loses cycles to the co-runner and throttles thermally; GPU shares
 * the thermal envelope and memory bus; the DSP is compute-isolated but
 * shares memory bandwidth. Memory contention also stalls compute on all
 * local processors, which is what pushes the optimal target off-device
 * entirely under a memory-intensive co-runner (Fig. 5).
 */
platform::Derate derateFor(platform::ProcKind kind, const EnvState &env);

/**
 * Extra system power drawn by the co-running apps themselves during the
 * inference window. The paper measures system-wide power, so a slower
 * inference pays for more co-runner energy.
 */
double backgroundPowerW(const platform::Device &device, const EnvState &env);

} // namespace autoscale::env

#endif // AUTOSCALE_ENV_INTERFERENCE_H_
