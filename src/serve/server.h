/**
 * @file
 * The online serving loop (DESIGN.md §12): a long-lived, seeded,
 * virtual-time event loop that feeds a stochastic arrival process
 * (Poisson + burst episodes) through admission control, the AutoScale
 * scheduler, per-target circuit breakers, and the fault-injected
 * execution path, checkpointing the Q-table crash-safely as it learns.
 *
 * This is the deployment-shaped counterpart of the batch experiment
 * harness: requests arrive whether the server is ready or not, queueing
 * delay counts against QoS, remote outages cost energy unless the
 * breaker amortizes them, and a SIGKILL at any point loses at most one
 * checkpoint interval of learning.
 *
 * Determinism: one master seed fans out (by fixed fork order) into the
 * arrival process, the environment sampler, the policy, the execution
 * noise, the workload mix, and the breakers' probe jitter, so a given
 * ServeConfig reproduces the identical run byte for byte.
 */

#ifndef AUTOSCALE_SERVE_SERVER_H_
#define AUTOSCALE_SERVE_SERVER_H_

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "env/scenario.h"
#include "fault/fault_injector.h"
#include "fault/retry.h"
#include "obs/trace_recorder.h"
#include "serve/admission.h"
#include "serve/arrival.h"
#include "serve/checkpoint.h"
#include "serve/circuit_breaker.h"
#include "sim/simulator.h"

namespace autoscale::serve {

/** Everything one serving run needs besides the simulator. */
struct ServeConfig {
    /** Runtime-variance environment driving the run. */
    env::ScenarioId scenario = env::ScenarioId::D3;
    /** Fault plan layered on the scenario (default: fault-free). */
    fault::FaultPlan faults;
    /** Timeout/retry knobs for remote attempts. */
    fault::RetryPolicy retry;

    /** Arrivals to generate before draining the queue and stopping. */
    std::int64_t totalRequests = 1000;
    ArrivalConfig arrival;
    AdmissionConfig admission;

    bool breakerEnabled = true;
    BreakerPolicy breaker;

    /** Checkpoint file path; empty disables checkpointing. */
    std::string checkpointPath;
    /** Served requests between checkpoints (<= 0: only the final one). */
    int checkpointIntervalRequests = 100;
    /** Recover Q-table + step counter from checkpointPath if possible. */
    bool resume = false;

    /** Pre-trained Q-table (saveQTable format); empty = train here. */
    std::string qtablePath;
    /** Pre-training runs per (network, scenario) when starting cold. */
    int trainRunsPerCombo = 40;

    /**
     * Scheduling policy driving decisions: "autoscale" (default,
     * learning + checkpointable) or one of the fixed baselines
     * "cloud", "connected-edge", "edge-best", "edge-cpu" (useful to
     * expose the breaker/shedding machinery to remote-heavy traffic).
     * Checkpointing, --qtable, and pre-training apply to AutoScale
     * only.
     */
    std::string policyName = "autoscale";

    /** Serve only this zoo workload; empty = the whole zoo mix. */
    std::string networkFilter;
    /** Inference quality requirement, %; 0 disables the constraint. */
    double accuracyTargetPct = 50.0;
    /** Master seed. */
    std::uint64_t seed = 1;

    /**
     * Inert: nothing in the library reads it. It keeps the benchmark's
     * fleet replay building; delete it once ROADMAP item 2 has removed
     * that replay.
     */
    int batchSize = 64;
};

/** Aggregate results of one serving run. */
struct ServeStats {
    std::int64_t arrivals = 0;
    std::int64_t admitted = 0;
    std::int64_t served = 0;
    /** Served with the degradation ladder engaged. */
    std::int64_t degraded = 0;
    std::int64_t shedDeadline = 0;
    std::int64_t shedOverflow = 0;
    std::int64_t shedStale = 0;
    /**
     * Requests lost to fleet churn (DESIGN.md §17): queued work
     * discarded when the device crashed or left, plus arrivals that hit
     * the device while it was offline. Always 0 outside churn fleets.
     */
    std::int64_t shedChurn = 0;

    /** QoS/accuracy violations among *served* requests. */
    std::int64_t qosViolations = 0;
    std::int64_t accuracyViolations = 0;
    /** Served requests that exhausted retries and ran on the fallback. */
    std::int64_t faultFallbacks = 0;
    /** Requests an open breaker sent straight to the local fallback. */
    std::int64_t breakerShortCircuits = 0;

    double energyJ = 0.0;
    /** Energy burned on failed remote attempts and backoff gaps, J. */
    double wastedEnergyJ = 0.0;
    double totalWaitMs = 0.0;
    double totalServiceMs = 0.0;
    /** End-to-end (wait + service) latency of each served request, ms. */
    std::vector<double> latenciesMs;
    std::size_t maxQueueDepth = 0;

    bool breakerEnabled = false;
    BreakerStats wlanBreaker;
    BreakerStats p2pBreaker;

    std::int64_t checkpointsWritten = 0;
    /** Whether a resume was requested and a checkpoint recovered. */
    bool resumed = false;
    CheckpointSource resumeSource = CheckpointSource::None;
    /** Step counter restored from the checkpoint (0 on cold start). */
    std::int64_t resumeStep = 0;
    /** Checkpoint files that existed but failed validation. */
    int corruptCheckpoints = 0;

    /** Virtual clock at the end of the run, ms. */
    double endClockMs = 0.0;
    /** Served-request decision mix by Fig. 13 category. */
    std::map<std::string, std::int64_t> categoryCounts;

    /**
     * Combined hash of one post-run draw from each serving RNG stream
     * (environment, decision, execution, workload-mix). Two runs that
     * consumed their streams identically — the cost-cache/--direct
     * parity contract — end with identical fingerprints; any hoisted,
     * dropped, or reordered draw changes it.
     */
    std::uint64_t rngFingerprint = 0;

    /** Percentile (0..100) of latenciesMs; 0 when nothing was served. */
    double latencyPercentileMs(double percentile) const;
    double meanWaitMs() const;
    double meanServiceMs() const;
};

/**
 * Best-case (clean-environment, best-local-target) service time per
 * workload — the admission controller's per-request service floor.
 */
std::vector<double> minServiceMsPerNetwork(
    const sim::InferenceSimulator &sim,
    const std::vector<const dnn::Network *> &networks,
    double accuracyTargetPct);

/**
 * Mean best-case service time over @p networks, ms — the "capacity"
 * unit the CLI's `--rate-x` multiplier is expressed in (rate-x 1.0
 * arrives exactly as fast as the server can drain local-only work).
 */
double nominalServiceMs(const sim::InferenceSimulator &sim,
                        const std::vector<const dnn::Network *> &networks,
                        double accuracyTargetPct);

/** Run one serving loop to completion. */
ServeStats runServe(const sim::InferenceSimulator &sim,
                    const ServeConfig &config,
                    const obs::ObsContext &obs = {});

/** Human-readable report (tables) for one run. */
void printServeReport(std::ostream &os, const ServeConfig &config,
                      const ServeStats &stats);

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_SERVER_H_
