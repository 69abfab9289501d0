/**
 * @file
 * The edge-cloud inference simulator: the substrate substituting for the
 * paper's physical testbed (three phones + tablet + Xeon/P100 server +
 * Monsoon power meter). Given a network, an execution target, and the
 * current runtime variance, it produces the measured latency, the true
 * device-side energy, the model-estimated energy (the paper's Renergy,
 * 7.3% MAPE), and the inference accuracy.
 *
 * `run` produces noisy measurements (what a real system would observe);
 * `expected` produces the noiseless model output (used by the Opt
 * oracle). Layer-granularity partitioned execution is provided for the
 * NeuroSurgeon/MOSAIC comparators.
 */

#ifndef AUTOSCALE_SIM_SIMULATOR_H_
#define AUTOSCALE_SIM_SIMULATOR_H_

#include <array>
#include <cstddef>
#include <vector>

#include "dnn/network.h"
#include "env/env_state.h"
#include "fault/retry.h"
#include "net/link.h"
#include "obs/metrics_registry.h"
#include "platform/device.h"
#include "sim/cost_model_cache.h"
#include "sim/target.h"
#include "util/rng.h"

namespace autoscale::sim {

/** Result of one (possibly simulated) inference execution. */
struct Outcome {
    /** False if the target cannot execute this network at all. */
    bool feasible = false;
    /** End-to-end latency, ms. */
    double latencyMs = 0.0;
    /** True device-side energy, J (what a power meter would integrate). */
    double energyJ = 0.0;
    /** Model-estimated energy, J (the paper's Renergy estimator). */
    double estimatedEnergyJ = 0.0;
    /** Inference quality, %. */
    double accuracyPct = 0.0;
    /** Compute portion of the latency (local or remote), ms. */
    double computeMs = 0.0;
    /** Uplink transfer time, ms (0 for local execution). */
    double txMs = 0.0;
    /** Downlink transfer time, ms (0 for local execution). */
    double rxMs = 0.0;

    /**
     * Performance per watt: work per joule for one inference, the
     * paper's energy-efficiency metric. For a fixed workload PPW is
     * proportional to 1/energy.
     */
    double
    ppw() const
    {
        return energyJ > 0.0 ? 1.0 / energyJ : 0.0;
    }
};

/**
 * Result of one execution under fault semantics: what was finally
 * delivered to the user, where it actually ran, and what the failed
 * attempts cost. The wasted radio/retry energy and the deadline/backoff
 * time are already folded into `outcome` (charged to the request), so
 * a reward computed from it makes the learner feel the failure.
 */
struct FaultOutcome {
    /** Delivered result, with all waste charged in. */
    Outcome outcome;
    /** Where the inference finally ran (fallback target if fellBack). */
    ExecutionTarget executedTarget;
    /** Remote attempts made; 0 when the decision was local. */
    int attempts = 0;
    /** Attempts abandoned at the deadline (dead link or too slow). */
    int timeouts = 0;
    /** Attempts whose transfer the link dropped mid-flight. */
    int drops = 0;
    /** A blackout/brownout outage blocked at least one attempt. */
    bool linkDown = false;
    /** Remote attempts exhausted; ran on the local fallback target. */
    bool fellBack = false;
    /** Energy burned on failed attempts and backoff gaps, J. */
    double wastedEnergyJ = 0.0;
    /** Time burned on failed attempts and backoff gaps, ms. */
    double wastedMs = 0.0;
};

/** Specification of the local half of a partitioned execution. */
struct PartitionSpec {
    /** Layers [0, splitLayer) run locally; the rest run remotely. */
    std::size_t splitLayer = 0;
    platform::ProcKind localProc = platform::ProcKind::MobileCpu;
    std::size_t vfIndex = 0;
    dnn::Precision localPrecision = dnn::Precision::FP32;
    TargetPlace remotePlace = TargetPlace::Cloud;
};

/** The full edge-cloud execution environment. */
class InferenceSimulator {
  public:
    /**
     * @param local The user's device.
     * @param connected The locally connected edge device.
     * @param cloud The cloud server.
     * @param wlan Link to the cloud.
     * @param p2p Link to the connected edge device.
     */
    InferenceSimulator(platform::Device local, platform::Device connected,
                       platform::Device cloud, net::WirelessLink wlan,
                       net::WirelessLink p2p);

    /**
     * Build the default evaluation setup of Section V-A around @p local:
     * Galaxy Tab S6 as connected edge, Xeon+P100 cloud, default links.
     */
    static InferenceSimulator makeDefault(platform::Device local);

    const platform::Device &localDevice() const { return local_; }
    const platform::Device &connectedDevice() const { return connected_; }
    const platform::Device &cloudDevice() const { return cloud_; }
    const net::WirelessLink &wlanLink() const { return wlan_; }
    const net::WirelessLink &p2pLink() const { return p2p_; }

    /** Whether @p target can execute @p network at all. */
    bool isFeasible(const dnn::Network &network,
                    const ExecutionTarget &target) const;

    /**
     * The network-independent part of isFeasible: whether @p target
     * exists on its device, matches its place, supports its precision
     * and V/F step — with the one network-dependent clause (mobile
     * co-processors cannot run recurrent/attention networks)
     * parameterized. Baselines precompute feasible-action subsets per
     * co-processor class with this and skip per-decision isFeasible
     * calls entirely. With the cost cache on this is two table reads
     * resolved at construction; the direct path evaluates it per call.
     */
    bool targetAvailable(const ExecutionTarget &target,
                         bool coProcessorsUsable) const;

    /** Noisy measured execution (the real-system observation). */
    Outcome run(const dnn::Network &network, const ExecutionTarget &target,
                const env::EnvState &env, Rng &rng) const;

    /** Noiseless model output (used by the Opt oracle). */
    Outcome expected(const dnn::Network &network,
                     const ExecutionTarget &target,
                     const env::EnvState &env) const;

    /**
     * Noisy execution under the fault semantics of env.fault: a remote
     * attempt that hits a blackout, a cloud outage, a dropped transfer,
     * or the per-attempt deadline is retried with exponential backoff
     * up to retry.maxRetries times; when every attempt fails, the
     * runtime is forced onto bestLocalTarget(). All waste is charged to
     * the request. Local decisions and infeasible targets pass straight
     * through to run(). With an inactive env.fault and a deadline no
     * healthy attempt trips, this consumes the same RNG stream as run()
     * and returns identical numbers.
     *
     * @param accuracyTargetPct Quality requirement used to pick the
     *        local fallback target (0 disables the constraint).
     */
    FaultOutcome runWithFaults(const dnn::Network &network,
                               const ExecutionTarget &target,
                               const env::EnvState &env,
                               const fault::RetryPolicy &retry,
                               double accuracyTargetPct, Rng &rng) const;

    /**
     * The forced-fallback target: the lowest expected-energy feasible
     * local option (each processor at its top frequency, any supported
     * precision) meeting @p accuracyTargetPct; local CPU FP32 at top
     * frequency when nothing qualifies (it is always feasible).
     */
    ExecutionTarget bestLocalTarget(const dnn::Network &network,
                                    const env::EnvState &env,
                                    double accuracyTargetPct) const;

    /** Noisy layer-partitioned execution (NeuroSurgeon/MOSAIC). */
    Outcome runPartitioned(const dnn::Network &network,
                           const PartitionSpec &spec,
                           const env::EnvState &env, Rng &rng) const;

    /** Noiseless layer-partitioned execution. */
    Outcome expectedPartitioned(const dnn::Network &network,
                                const PartitionSpec &spec,
                                const env::EnvState &env) const;

    /** The device executing targets at @p place. */
    const platform::Device &deviceAt(TargetPlace place) const;

    /**
     * Attach a metrics registry counting every execution this simulator
     * performs (noisy runs vs. noiseless model queries, per-place
     * shares, infeasible picks). Pass nullptr to detach. Only commuting
     * integer counters are recorded, so a registry may be shared by
     * concurrent callers without breaking the determinism contract.
     * The registry must outlive the simulator (or be detached first).
     * Counter handles are resolved here, once, so per-execution
     * accounting is a lock-free add with no name lookup.
     */
    void setObserver(obs::MetricsRegistry *metrics);

    /** The attached metrics observer (nullptr when none). */
    obs::MetricsRegistry *observer() const { return metricsObserver_; }

    /**
     * Toggle the precomputed decision-path tables (default on). The
     * direct path recomputes every latency/accuracy/transfer quantity
     * from first principles; both paths produce bit-identical numbers
     * (the cache replays the exact FP operation sequence), so this
     * exists only as the benchmark baseline and parity-test control.
     */
    void setUseCostCache(bool use) { useCostCache_ = use; }

    /** Whether decisions are served from the precomputed tables. */
    bool usingCostCache() const { return useCostCache_; }

    /** The precomputed tables (built once at construction). */
    const CostModelCache &costCache() const { return costCache_; }

  private:
    /** Pre-resolved observer counter handles (null when detached). */
    struct ObserverCounters {
        obs::Counter *runs = nullptr;
        obs::Counter *expected = nullptr;
        obs::Counter *infeasible = nullptr;
        obs::Counter *execPartitioned = nullptr;
        obs::Counter *execLocal = nullptr;
        obs::Counter *execConnectedEdge = nullptr;
        obs::Counter *execCloud = nullptr;
        obs::Counter *faultFallbacks = nullptr;
    };

    void countExecution(TargetPlace place, bool noisy, bool feasible,
                        bool partitioned) const;

    Outcome measure(const dnn::Network &network,
                    const ExecutionTarget &target, const env::EnvState &env,
                    Rng *rng, double remoteSlowdown = 1.0) const;

    Outcome measurePartitioned(const dnn::Network &network,
                               const PartitionSpec &spec,
                               const env::EnvState &env, Rng *rng) const;

    /** targetAvailable evaluated from the devices (the direct path). */
    bool resolveTargetAvailable(const ExecutionTarget &target,
                                bool coProcessorsUsable) const;

    /**
     * Remote-side compute latency of @p proc at @p place, at its top
     * frequency, evaluated from the device (the direct path).
     */
    double remoteComputeMs(const dnn::Network &network, TargetPlace place,
                           platform::ProcKind proc,
                           dnn::Precision precision) const;

    static constexpr std::size_t kNumPlaces = 3;
    static constexpr std::size_t kNumProcKinds = 7;
    static constexpr std::size_t kNumPrecisions = 3;

    platform::Device local_;
    platform::Device connected_;
    platform::Device cloud_;
    net::WirelessLink wlan_;
    net::WirelessLink p2p_;
    obs::MetricsRegistry *metricsObserver_ = nullptr;
    ObserverCounters counters_;
    CostModelCache costCache_;
    bool useCostCache_ = true;
    /**
     * resolveTargetAvailable at V/F step 0, resolved at construction per
     * [coProcessorsUsable][place][kind][precision]. Only the V/F clause
     * depends on the step, so with targetVfSteps_ this is the whole
     * answer for every target.
     */
    std::array<std::array<std::array<std::array<bool, kNumPrecisions>,
                                      kNumProcKinds>,
                           kNumPlaces>,
               2>
        targetAvailable_{};
    /** numVfSteps() of the processor per [place][kind]; 0 when absent. */
    std::array<std::array<std::size_t, kNumProcKinds>, kNumPlaces>
        targetVfSteps_{};
    /**
     * bestLocalTarget candidate lists, precomputed in processors() ×
     * precision order at top frequency: one for networks that may use
     * mobile co-processors, one for those that may not.
     */
    std::vector<ExecutionTarget> localFallbacks_;
    std::vector<ExecutionTarget> localFallbacksRcOnly_;
};

} // namespace autoscale::sim

#endif // AUTOSCALE_SIM_SIMULATOR_H_
