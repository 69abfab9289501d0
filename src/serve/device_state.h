/**
 * @file
 * Serving device representation: one shared plan, one record per
 * device (DESIGN.md §18).
 *
 * A million-device fleet cannot afford one heap-allocated pimpl, one
 * copy of the serving configuration, and one resolved workload table
 * per device. This header splits what used to be `DeviceLoop::Impl`
 * into:
 *
 *  - `DevicePlan` — everything that is identical across a fleet's
 *    devices and immutable for the whole run: the simulator reference,
 *    the resolved ServeConfig template, the workload mix with its
 *    admission floors, the nominal service time, and a fixed-policy
 *    run's one policy instance. A fleet builds
 *    one plan and every device points at it; a standalone device owns
 *    a private plan (`DeviceState::Owned`), keeping single-device
 *    semantics unchanged.
 *
 *  - `DeviceState` — the per-device mutable replay state, laid out as
 *    a flat movable struct so a fleet can hold `std::vector<DeviceState>`
 *    (one contiguous table fill, no per-device pimpl allocation).
 *    Everything a device's trajectory depends on lives here: the
 *    virtual clock, the RNG streams, the admission ring, breaker
 *    states, the per-request counters, and the AutoScale learner. It
 *    holds only what serving a request touches: finish() builds the
 *    ServeStats report, and what only a standalone or checkpointing
 *    device has (its plan, metrics block, checkpoint manager and
 *    resume provenance) sits behind one pointer, null for the rest of
 *    a fleet. A fixed-policy fleet device allocates nothing at
 *    construction.
 *
 * `DeviceLoop` (device_loop.h) remains the only mutation API — it is
 * now a thin view over one `DeviceState` — so the shards/jobs, churn,
 * checkpoint-replay, and `advance(+inf)` ≡ `runServe` bit-exactness
 * contracts of DESIGN.md §15–§17 are preserved by construction: the
 * loop body is the same code reading the same state in the same order
 * regardless of how the state is owned.
 */

#ifndef AUTOSCALE_SERVE_DEVICE_STATE_H_
#define AUTOSCALE_SERVE_DEVICE_STATE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "baselines/policy.h"
#include "serve/server.h"
#include "serve/shared_infra.h"

namespace autoscale::core {
class AutoScaleScheduler;
} // namespace autoscale::core

namespace autoscale::harness {
class AutoScalePolicy;
} // namespace autoscale::harness

namespace autoscale::sim {
class BatchDecisionEngine;
} // namespace autoscale::sim

namespace autoscale::serve {

class CompactServeMetrics;

/** One zoo workload the serving mix can draw. */
struct Workload {
    const dnn::Network *network = nullptr;
    sim::InferenceRequest request;
    /** Best-case service time (admission floor), ms. */
    double minServiceMs = 0.0;
};

/**
 * Dense serve-outcome ids: array indices for CompactServeMetrics (the
 * string names feed trace events and counter names only).
 */
enum ServeOutcomeId : int {
    kServed = 0,
    kShedOverflow,
    kShedDeadline,
    kShedStale,
    kShedChurn,
    kNumServeOutcomes,
};

constexpr std::array<const char *, kNumServeOutcomes> kServeOutcomeNames =
    {"served", "shed_overflow", "shed_deadline", "shed_stale",
     "shed_churn"};

/**
 * Declare the serve.* histograms every metered serving run exports,
 * with CompactServeMetrics' bucket bounds (the recorder itself creates
 * them at flush; this is for callers that want them up front).
 */
void declareServeHistograms(obs::MetricsRegistry &metrics);

/**
 * The run-immutable part of a serving device, shared across a whole
 * fleet: built once, read by every device, never written after
 * construction. The seed field of `config` is a template value —
 * each device's actual seed is passed to its DeviceState explicitly.
 */
struct DevicePlan {
    const sim::InferenceSimulator *sim = nullptr;
    ServeConfig config;
    std::vector<const dnn::Network *> networks;
    std::vector<Workload> workloads;
    /** Mean best-case service time (initial EWMA estimate), ms. */
    double nominalServiceMs = 0.0;
    /**
     * The run's fixed policy (cloud, connected-edge, edge-best or
     * edge-cpu), its offline picks profiled on `workloads`' requests;
     * null for the AutoScale learner, which each device owns. Every
     * device decides through this one instance and only reads it.
     */
    std::unique_ptr<baselines::SchedulingPolicy> fixedPolicy;
};

/**
 * Resolve the workload mix, admission floors, nominal service time and
 * fixed policy for @p config (fatal on an unknown --network filter or
 * policy name). Pure: consumes no RNG stream.
 */
DevicePlan makeDevicePlan(const sim::InferenceSimulator &sim,
                          const ServeConfig &config);

/**
 * The per-request counters and sums of one serving run: the ServeStats
 * fields the loop writes while it serves. DeviceState::finish() copies
 * them into the report next to the fields it derives at the end.
 */
struct RunCounters {
    std::int64_t arrivals = 0;
    std::int64_t admitted = 0;
    std::int64_t served = 0;
    std::int64_t degraded = 0;
    std::int64_t shedDeadline = 0;
    std::int64_t shedOverflow = 0;
    std::int64_t shedStale = 0;
    std::int64_t shedChurn = 0;
    std::int64_t qosViolations = 0;
    std::int64_t accuracyViolations = 0;
    std::int64_t faultFallbacks = 0;
    std::int64_t checkpointsWritten = 0;
    double energyJ = 0.0;
    double wastedEnergyJ = 0.0;
    double totalWaitMs = 0.0;
    double totalServiceMs = 0.0;
    std::vector<double> latenciesMs;
};

/**
 * One device's complete mutable serving state — the former
 * `DeviceLoop::Impl`, flattened so fleets can store devices in one
 * contiguous array. Members are public: this is an internal
 * serve-layer type; `DeviceLoop` is the public mutation API.
 */
struct DeviceState {
    /**
     * What only a standalone or checkpointing device has, behind one
     * pointer so a fleet device without it pays 8 bytes.
     */
    struct Owned {
        /** A standalone device's private plan. */
        std::unique_ptr<DevicePlan> plan;
        /** A standalone device's metrics block, flushed into `metrics`
         * at the end of finish(). */
        std::unique_ptr<CompactServeMetrics> block;
        obs::MetricsRegistry *metrics = nullptr;
        std::unique_ptr<CheckpointManager> manager;
        /** Provenance of a --resume; resumeStep (0 on a cold start)
         * also offsets the checkpointed step counter. */
        bool resumed = false;
        CheckpointSource resumeSource = CheckpointSource::None;
        std::int64_t resumeStep = 0;
        int corruptCheckpoints = 0;
    };

    /**
     * Standalone device: builds and owns a private plan from
     * @p config (workload mix, floors), seeds from config.seed, and
     * owns (when metering) its metrics block, which finish() flushes
     * into obs.metrics.
     */
    DeviceState(const sim::InferenceSimulator &sim,
                const ServeConfig &config, const obs::ObsContext &obs,
                int deviceId, const core::AutoScaleScheduler *warmStart);

    /**
     * Fleet device over a shared immutable @p plan. @p seed replaces
     * plan.config.seed (the fleet derives one seed per device);
     * everything else reads through the plan. The caller points
     * `block` at a pooled metrics block and flushes it; obs.metrics is
     * not used. The unnamed last parameter is inert: it keeps the
     * benchmark's fleet replay building; delete it once ROADMAP item 2
     * has removed that replay.
     */
    DeviceState(const DevicePlan &plan, const obs::ObsContext &obs,
                int deviceId, std::uint64_t seed,
                const core::AutoScaleScheduler *warmStart,
                sim::BatchDecisionEngine * = nullptr);

    ~DeviceState();
    DeviceState(DeviceState &&);
    DeviceState &operator=(DeviceState &&);
    DeviceState(const DeviceState &) = delete;
    DeviceState &operator=(const DeviceState &) = delete;

    const ServeConfig &config() const { return plan->config; }
    const sim::InferenceSimulator &sim() const { return *plan->sim; }
    const std::vector<Workload> &workloads() const
    {
        return plan->workloads;
    }

    void advance(double untilMs);
    std::int64_t discardQueue(std::int64_t atEpoch);
    std::int64_t advanceOffline(double untilMs, std::int64_t atEpoch);
    void admitUpTo(double nowMs);
    void recordShed(const Workload &workload, ServeOutcomeId outcome,
                    int depth);
    void commitRequest(const QueuedRequest &queued, int degradeLevel,
                       int depthAtDequeue);
    void checkpointNow();
    ServeStats finish();

    /** Shared immutable plan (a standalone device's is in `owned`). */
    const DevicePlan *plan = nullptr;
    /** Decision-event sink; null when the device is not traced. */
    obs::TraceRecorder *trace = nullptr;
    int deviceId = -1;

    RunCounters counters;

    Rng envRng;
    Rng decisionRng;
    Rng execRng;
    Rng workloadRng;

    /** Decision policy: the plan's fixedPolicy or `learner`. */
    baselines::SchedulingPolicy *policy = nullptr;
    /** This device's own AutoScale learner; null for fixed policies. */
    std::unique_ptr<harness::AutoScalePolicy> learner;

    std::optional<env::Scenario> scenario;
    /** The arrival process and breakers read their settings through
     * the plan (config().arrival, config().breaker), never a copy. */
    ArrivalProcess arrivals;
    AdmissionQueue queue;
    CircuitBreaker wlanBreaker;
    CircuitBreaker p2pBreaker;

    /**
     * This device's metrics recorder; null when metering is off. A
     * standalone device owns it (Owned::block) and flushes it at the
     * end of finish(); a fleet pools one per device and flushes them
     * in device-index order.
     */
    CompactServeMetrics *block = nullptr;
    /** Null for a fleet device that does no checkpointing. */
    std::unique_ptr<Owned> owned;

    double clockMs = 0.0;
    double ewmaServiceMs = 0.0;
    double pendingArrivalMs = 0.0;
    bool arrivalsDone = false;
    bool loopDone = false;
    bool finished = false;

    std::array<std::int64_t, sim::kNumTargetCategories> categoryTally{};

    // --- Fleet hooks (inert outside fleet mode). ---
    /** Frozen contention snapshot for the current advance() slice. */
    const SharedSnapshot *shared = nullptr;
    /** Fleet epoch index recorded on trace events. */
    std::int64_t epoch = 0;
    EpochUsage usage;

  private:
    /** The device seed's fan-out into its streams and seeds. */
    struct RngFanout;

    /**
     * Shared construction: @p plan_in is the fleet's plan, or null
     * for the one in @p owned_in; the streams and seeded members come
     * from @p fanout, then the body sets up the policy and its
     * Q-table provenance.
     */
    DeviceState(const DevicePlan *plan_in, std::unique_ptr<Owned> owned_in,
                const obs::ObsContext &obs, int deviceId_in,
                const RngFanout &fanout,
                const core::AutoScaleScheduler *warmStart);

    /** Whether decision events are built and recorded. */
    bool tracing() const;
};

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_DEVICE_STATE_H_
