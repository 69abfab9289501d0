/**
 * @file
 * The fixed baselines of Section V-A:
 *
 *  - Edge (CPU FP32): always the local CPU at top frequency, FP32.
 *  - Edge (Best): the most energy-efficient local processor for each
 *    NN, profiled offline under no runtime variance.
 *  - Cloud: always offload to the cloud (server GPU).
 *  - Connected Edge: always offload to the locally connected device
 *    (its best processor for the NN, profiled offline).
 */

#ifndef AUTOSCALE_BASELINES_FIXED_H_
#define AUTOSCALE_BASELINES_FIXED_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/policy.h"

namespace autoscale::baselines {

/** Always the local CPU at top frequency, FP32. */
std::unique_ptr<SchedulingPolicy> makeEdgeCpuFp32Policy(
    const sim::InferenceSimulator &sim);

/**
 * Per-NN best local processor at top frequency, profiled offline with no
 * variance (CPU FP32, GPU FP32, or DSP INT8, whichever is most energy
 * efficient while meeting the request's constraints). The pick is
 * profiled once per (network, QoS target, accuracy target) and then
 * remembered.
 */
std::unique_ptr<SchedulingPolicy> makeEdgeBestPolicy(
    const sim::InferenceSimulator &sim);

/** Always the cloud server's GPU. */
std::unique_ptr<SchedulingPolicy> makeCloudPolicy(
    const sim::InferenceSimulator &sim);

/** Always the connected edge device (its best processor per NN). */
std::unique_ptr<SchedulingPolicy> makeConnectedEdgePolicy(
    const sim::InferenceSimulator &sim);

/**
 * The fixed policy a serving run names: "cloud", "connected-edge",
 * "edge-best" or "edge-cpu"; nullptr for any other name. The offline
 * pick of every request in @p profile is computed here, so decide()
 * only reads the policy and one instance can serve many devices at
 * once. Deciding a request outside @p profile fails a check.
 */
std::unique_ptr<SchedulingPolicy> makeServingFixedPolicy(
    const std::string &name, const sim::InferenceSimulator &sim,
    const std::vector<sim::InferenceRequest> &profile);

} // namespace autoscale::baselines

#endif // AUTOSCALE_BASELINES_FIXED_H_
