#include "serve/device_loop.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>

#include "baselines/fixed.h"
#include "baselines/policy.h"
#include "core/scheduler.h"
#include "dnn/model_zoo.h"
#include "dnn/network.h"
#include "harness/autoscale_policy.h"
#include "harness/experiment.h"
#include "serve/compact_metrics.h"
#include "serve/device_state.h"
#include "util/logging.h"

namespace autoscale::serve {

namespace {

/** EWMA weight for the observed service-time estimate. */
constexpr double kServiceEwmaAlpha = 0.1;

ServeOutcomeId
shedOutcomeId(AdmissionVerdict verdict)
{
    switch (verdict) {
    case AdmissionVerdict::Admitted:
        return kServed;
    case AdmissionVerdict::ShedOverflow:
        return kShedOverflow;
    case AdmissionVerdict::ShedDeadline:
        return kShedDeadline;
    }
    panic("unreachable admission verdict");
}

/** Skeleton event shared by served and shed records. */
obs::DecisionEvent
makeServeEvent(const baselines::SchedulingPolicy &policy,
               const Workload &workload, const char *scenarioName,
               const char *serveOutcome, int queueDepth,
               std::int64_t checkpoints)
{
    obs::DecisionEvent event;
    event.policy = policy.name();
    event.network = workload.network->name();
    event.scenario = scenarioName;
    event.phase = "serve";
    event.qosMs = workload.request.qosMs;
    event.serveOutcome = serveOutcome;
    event.queueDepth = queueDepth;
    event.serveCheckpoints = checkpoints;
    return event;
}

} // namespace

DevicePlan
makeDevicePlan(const sim::InferenceSimulator &sim,
               const ServeConfig &config)
{
    AS_CHECK(config.totalRequests > 0);
    DevicePlan plan;
    plan.sim = &sim;
    plan.config = config;
    for (const dnn::Network &network : dnn::modelZoo()) {
        if (config.networkFilter.empty()
            || network.name() == config.networkFilter) {
            plan.networks.push_back(&network);
        }
    }
    if (plan.networks.empty()) {
        fatal("serve: unknown network '" + config.networkFilter + "'");
    }
    const std::vector<double> floors =
        minServiceMsPerNetwork(sim, plan.networks,
                               config.accuracyTargetPct);
    plan.workloads.reserve(plan.networks.size());
    for (std::size_t i = 0; i < plan.networks.size(); ++i) {
        plan.workloads.push_back(Workload{
            plan.networks[i],
            sim::makeRequest(*plan.networks[i], config.accuracyTargetPct),
            floors[i]});
    }
    plan.nominalServiceMs =
        nominalServiceMs(sim, plan.networks, config.accuracyTargetPct);
    if (!config.policyName.empty() && config.policyName != "autoscale") {
        std::vector<sim::InferenceRequest> profile;
        profile.reserve(plan.workloads.size());
        for (const Workload &workload : plan.workloads) {
            profile.push_back(workload.request);
        }
        plan.fixedPolicy = baselines::makeServingFixedPolicy(
            config.policyName, sim, profile);
        if (plan.fixedPolicy == nullptr) {
            fatal("serve: unknown policy '" + config.policyName
                  + "' (expected autoscale, cloud, connected-edge,"
                    " edge-best, or edge-cpu)");
        }
    }
    return plan;
}

DeviceState::DeviceState(const sim::InferenceSimulator &sim_in,
                         const ServeConfig &config_in,
                         const obs::ObsContext &obs_in, int deviceId_in,
                         const core::AutoScaleScheduler *warmStart)
    : planOwner(std::make_unique<DevicePlan>(
          makeDevicePlan(sim_in, config_in))),
      obs(obs_in), deviceId(deviceId_in)
{
    plan = planOwner.get();
    if (obs.metering()) {
        ownedBlock = std::make_unique<CompactServeMetrics>();
        block = ownedBlock.get();
    }
    init(config().seed, warmStart);
}

DeviceState::DeviceState(const DevicePlan &plan_in,
                         const obs::ObsContext &obs_in, int deviceId_in,
                         std::uint64_t seed,
                         const core::AutoScaleScheduler *warmStart,
                         sim::BatchDecisionEngine *)
    : plan(&plan_in), obs(obs_in), deviceId(deviceId_in)
{
    init(seed, warmStart);
}

DeviceState::~DeviceState() = default;
DeviceState::DeviceState(DeviceState &&) = default;
DeviceState &DeviceState::operator=(DeviceState &&) = default;

/**
 * Construction tail shared by the standalone and fleet ctors. The
 * statement order replays the original runServe body exactly — the RNG
 * fan-out and every side effect happen in the same sequence, so a
 * full-run advance() is bit-identical to the pre-refactor loop.
 */
void
DeviceState::init(std::uint64_t seed,
                  const core::AutoScaleScheduler *warmStart)
{
    stats.breakerEnabled = config().breakerEnabled;

    // --- Deterministic RNG fan-out (fixed fork order; see server.h).
    // Every stream is forked for every device — including streams a
    // warm-started fleet device never consumes (trainRng) — so the
    // fan-out is a pure function of the device seed. ---
    Rng master(seed);
    Rng trainRng = master.fork();
    const std::uint64_t arrivalSeed = master.next();
    envRng = master.fork();
    decisionRng = master.fork();
    execRng = master.fork();
    workloadRng = master.fork();
    const std::uint64_t wlanSeed = master.next();
    const std::uint64_t p2pSeed = master.next();
    const std::uint64_t policySeed = master.next();

    // --- Policy. Fixed baselines run the same loop (useful to expose
    // the breaker and shedding machinery to remote-heavy traffic)
    // through the plan's one read-only instance; only the AutoScale
    // learner is per device and has a Q-table to checkpoint. ---
    if (plan->fixedPolicy != nullptr) {
        policy = plan->fixedPolicy.get();
    } else {
        // A fleet peer warm-starts from device 0, which already trained
        // (or loaded) this table, instead of repeating the work N times.
        learner = harness::makeAutoScalePolicy(
            sim(), policySeed, core::SchedulerConfig{}, warmStart);
        policy = learner.get();
    }
    if (learner == nullptr
        && (!config().checkpointPath.empty()
            || !config().qtablePath.empty())) {
        fatal("serve: --checkpoint/--qtable apply to the autoscale policy"
              " only");
    }

    // --- Q-table provenance: warm start (fleet peers, taken when the
    // policy was built above) > checkpoint > --qtable > pre-training. ---
    if (!config().checkpointPath.empty()) {
        manager = std::make_unique<CheckpointManager>(
            config().checkpointPath);
    }
    if (learner == nullptr || warmStart == nullptr) {
        bool restored = false;
        if (config().resume) {
            if (!manager) {
                fatal("serve: --resume requires --checkpoint");
            }
            core::AutoScaleScheduler &scheduler = learner->scheduler();
            const CheckpointLoadResult recovery = manager->load();
            stats.corruptCheckpoints = recovery.corruptDetected;
            stats.resumeSource = recovery.source;
            if (recovery.loaded) {
                if (recovery.data.fingerprint
                    != scheduler.actionFingerprint()) {
                    fatal("serve: checkpoint '" + config().checkpointPath
                          + "' was written for a different action space");
                }
                core::QTable &live =
                    scheduler.mutableAgent().mutableTable();
                if (recovery.data.table.numStates() != live.numStates()
                    || recovery.data.table.numActions()
                        != live.numActions()) {
                    fatal("serve: checkpoint '" + config().checkpointPath
                          + "' has mismatched Q-table dimensions");
                }
                // Q values and the step counter are restored; per-cell
                // visit counts are not checkpointed, so post-resume
                // updates restart at the full learning rate. That only
                // accelerates re-convergence toward the same steady
                // state.
                live = recovery.data.table;
                startStep = recovery.data.step;
                stats.resumed = true;
                stats.resumeStep = recovery.data.step;
                restored = true;
            }
        }
        if (learner != nullptr && !restored) {
            if (!config().qtablePath.empty()) {
                std::ifstream in(config().qtablePath);
                if (!in) {
                    fatal("serve: cannot open Q-table '"
                          + config().qtablePath + "'");
                }
                learner->scheduler().loadQTable(in);
            } else if (config().trainRunsPerCombo > 0) {
                harness::trainPolicy(*learner, sim(), plan->networks,
                                     {config().scenario},
                                     config().trainRunsPerCombo, trainRng,
                                     false, config().accuracyTargetPct);
            }
        }
    }
    // Serving keeps learning online (the paper's deployment mode), so
    // the loop itself is the convergence mechanism after a resume.
    if (learner != nullptr) {
        learner->setExploration(true);
        learner->setLearning(true);
    }

    // --- Loop state. ---
    scenario.emplace(config().scenario, config().faults);
    arrivals.emplace(config().arrival, arrivalSeed);
    queue.emplace(config().admission);
    wlanBreaker.emplace(config().breaker, wlanSeed);
    p2pBreaker.emplace(config().breaker, p2pSeed);
    probeRetry = config().retry;
    probeRetry.maxRetries = 0;

    clockMs = 0.0;
    ewmaServiceMs = plan->nominalServiceMs;
    pendingArrivalMs = arrivals->nextArrivalMs();
    arrivalsDone = false;
}

void
DeviceState::checkpointNow()
{
    if (!manager) {
        return;
    }
    core::AutoScaleScheduler &scheduler = learner->scheduler();
    std::string error;
    if (!manager->save(scheduler.actionFingerprint(),
                       startStep + stats.served,
                       scheduler.agent().table(), &error)) {
        fatal("serve: checkpoint failed: " + error);
    }
    stats.checkpointsWritten = manager->written();
    if (block != nullptr) {
        block->recordCheckpoint();
    }
}

void
DeviceState::recordShed(const Workload &workload, ServeOutcomeId outcome,
                        int depth)
{
    if (block != nullptr) {
        block->recordShed(outcome, depth);
    }
    if (!obs.tracing()) {
        return;
    }
    obs::DecisionEvent event = makeServeEvent(
        *policy, workload, scenario->name(),
        kServeOutcomeNames[static_cast<std::size_t>(outcome)], depth,
        stats.checkpointsWritten);
    event.target = "(shed)";
    event.category = "(shed)";
    if (config().breakerEnabled) {
        event.breakerWlan = breakerStateName(wlanBreaker->state());
        event.breakerP2p = breakerStateName(p2pBreaker->state());
    }
    if (deviceId >= 0) {
        event.deviceId = deviceId;
        event.fleetEpoch = epoch;
        if (shared != nullptr) {
            event.edgeQueueDepth = shared->edgeQueueDepth;
            event.congestionDerate = shared->wifiDerate;
            event.fleetBrownout = shared->brownout;
            event.edgeOutage = shared->edgeOutage;
        }
    }
    obs.trace->record(std::move(event));
}

// Admit every arrival at or before the current virtual time.
void
DeviceState::admitUpTo(double nowMs)
{
    const std::vector<Workload> &mix = plan->workloads;
    while (!arrivalsDone && pendingArrivalMs <= nowMs) {
        const int index =
            static_cast<int>(workloadRng.uniformInt(mix.size()));
        const Workload &workload = mix[index];
        const QueuedRequest request{
            stats.arrivals, pendingArrivalMs,
            pendingArrivalMs + workload.request.qosMs, index};
        ++stats.arrivals;
        const AdmissionVerdict verdict = queue->offer(
            request, nowMs, ewmaServiceMs, workload.minServiceMs);
        switch (verdict) {
        case AdmissionVerdict::Admitted:
            ++stats.admitted;
            break;
        case AdmissionVerdict::ShedOverflow:
            ++stats.shedOverflow;
            recordShed(workload, shedOutcomeId(verdict),
                       static_cast<int>(queue->depth()));
            break;
        case AdmissionVerdict::ShedDeadline:
            ++stats.shedDeadline;
            recordShed(workload, shedOutcomeId(verdict),
                       static_cast<int>(queue->depth()));
            break;
        }
        if (arrivals->count() >= config().totalRequests) {
            arrivalsDone = true;
        } else {
            pendingArrivalMs = arrivals->nextArrivalMs();
        }
    }
}

// Commit one popped request: decide, execute, meter and trace it.
void
DeviceState::commitRequest(const QueuedRequest &queued, int degradeLevel,
                           int depthAtDequeue)
{
    const Workload &workload = plan->workloads[
        static_cast<std::size_t>(queued.networkIndex)];

    // Stale re-check: the admission estimate may have aged badly
    // (a burst of slow services after this request was admitted).
    if (clockMs + workload.minServiceMs > queued.deadlineMs) {
        ++stats.shedStale;
        recordShed(workload, kShedStale, depthAtDequeue);
        return;
    }

    env::EnvState env = scenario->next(envRng);
    baselines::Decision decision =
        policy->decide(workload.request, env, decisionRng);

    // Best local target for this (request, env) pair, wanted by up
    // to three sites below (degrade, breaker short-circuit, infeasible
    // fallback) with identical arguments. The first site computes it
    // and the others reuse it: the function is pure, so the memo is
    // bit-identical to recomputing.
    std::optional<sim::ExecutionTarget> bestLocalMemo;
    auto bestLocal = [&]() -> const sim::ExecutionTarget & {
        if (!bestLocalMemo) {
            bestLocalMemo = sim().bestLocalTarget(
                *workload.network, env, config().accuracyTargetPct);
        }
        return *bestLocalMemo;
    };

    // Graceful degradation: under queue pressure, force expensive
    // remote/partitioned picks onto the cheap local variant before
    // any request has to be dropped.
    bool degraded = false;
    const bool remoteDecision = decision.partitioned
        || decision.target.place != sim::TargetPlace::Local;
    if (degradeLevel > 0 && remoteDecision) {
        decision = baselines::makeTargetDecision(bestLocal());
        degraded = true;
        ++stats.degraded;
    }

    // Circuit-breaker gate on the remote place the decision needs.
    CircuitBreaker *breaker = nullptr;
    bool shortCircuited = false;
    bool probing = false;
    if (config().breakerEnabled
        && (decision.partitioned
            || decision.target.place != sim::TargetPlace::Local)) {
        const sim::TargetPlace place = decision.partitioned
            ? decision.partition.remotePlace : decision.target.place;
        breaker = place == sim::TargetPlace::Cloud
            ? &*wlanBreaker : &*p2pBreaker;
        if (!breaker->allowAttempt(clockMs)) {
            // Open breaker: skip the doomed remote attempt (and its
            // timeout+retry energy) entirely.
            shortCircuited = true;
            breaker = nullptr;
            decision = baselines::makeTargetDecision(bestLocal());
        } else {
            probing = breaker->probing();
        }
    }

    // Half-open probes run with zero retries: one cheap attempt
    // decides reopen-vs-close instead of a full retry cycle.
    const fault::RetryPolicy &retry =
        breaker != nullptr && probing ? probeRetry : config().retry;
    sim::FaultOutcome faultResult = baselines::executeDecisionWithFaults(
        sim(), workload.request, decision, env, retry, execRng);
    if (breaker != nullptr) {
        if (faultResult.fellBack) {
            breaker->recordFailure(clockMs);
        } else {
            breaker->recordSuccess(clockMs);
        }
    }
    policy->feedback(faultResult.outcome);

    // Infeasible picks execute on the fallback for the user, like
    // the batch harness does.
    sim::Outcome measured = faultResult.outcome;
    if (!measured.feasible) {
        measured = sim().run(*workload.network, bestLocal(), env, execRng);
    }

    double serviceMs = measured.latencyMs;

    // --- Fleet contention (DESIGN.md §15). shared == nullptr outside
    // fleet mode: the block is skipped and serviceMs is untouched. A
    // neutral snapshot applies only IEEE-754 identities (+0.0, /1.0),
    // so a one-device fleet stays bit-identical too. ---
    double edgeWaitMs = 0.0;
    double derate = 1.0;
    bool brownoutHit = false;
    if (shared != nullptr) {
        // Where the request actually executed: fallbacks, infeasible
        // reruns, and short-circuits all landed on the local device
        // and consume no shared capacity.
        sim::TargetPlace place = sim::TargetPlace::Local;
        if (!faultResult.fellBack && faultResult.outcome.feasible) {
            place = decision.partitioned ? decision.partition.remotePlace
                                         : decision.target.place;
        }
        if (place == sim::TargetPlace::ConnectedEdge) {
            // Slot occupancy is the actual service time; the queue wait
            // delays this device but holds no edge slot.
            edgeWaitMs = shared->edgeQueueMs;
            usage.edgeBusyMs += serviceMs;
            ++usage.edgeJobs;
            serviceMs += edgeWaitMs;
            if (block != nullptr) {
                block->observeEdgeWait(edgeWaitMs);
            }
        } else if (place == sim::TargetPlace::Cloud) {
            // Congested Wi-Fi stretches the transfer (rate derate), and
            // a browned-out cloud stretches the whole service. The
            // stretched time is what occupies the channel.
            derate = shared->wifiDerate;
            serviceMs /= derate;
            if (shared->brownout) {
                serviceMs *= shared->cloudSlowdown;
                brownoutHit = true;
            }
            usage.cloudBusyMs += serviceMs;
            ++usage.cloudJobs;
            if (block != nullptr) {
                block->observeCloud(derate, brownoutHit);
            }
        }
    }

    const double waitMs = std::max(0.0, clockMs - queued.arrivalMs);
    const double latencyMs = waitMs + serviceMs;
    const double finishMs = clockMs + serviceMs;
    const bool qosViolated = finishMs > queued.deadlineMs;

    ++stats.served;
    stats.totalWaitMs += waitMs;
    stats.totalServiceMs += serviceMs;
    stats.latenciesMs.push_back(latencyMs);
    stats.energyJ += measured.energyJ;
    stats.wastedEnergyJ += faultResult.wastedEnergyJ;
    if (faultResult.fellBack) {
        ++stats.faultFallbacks;
    }
    if (qosViolated) {
        ++stats.qosViolations;
    }
    if (!faultResult.outcome.feasible
        || measured.accuracyPct < workload.request.accuracyTargetPct) {
        ++stats.accuracyViolations;
    }
    ++categoryTally[static_cast<std::size_t>(decision.categoryId())];
    ewmaServiceMs = (1.0 - kServiceEwmaAlpha) * ewmaServiceMs
        + kServiceEwmaAlpha * serviceMs;

    if (block != nullptr) {
        block->recordServed(
            decision.categoryId(), qosViolated, degraded, shortCircuited,
            faultResult.fellBack, waitMs, latencyMs,
            measured.energyJ * 1e3, depthAtDequeue);
    }
    if (obs.tracing()) {
        obs::DecisionEvent event = makeServeEvent(
            *policy, workload, scenario->name(), "served", depthAtDequeue,
            stats.checkpointsWritten);
        event.coCpuUtil = env.coCpuUtil;
        event.coMemUtil = env.coMemUtil;
        event.rssiWlanDbm = env.rssiWlanDbm;
        event.rssiP2pDbm = env.rssiP2pDbm;
        event.thermalFactor = env.thermalFactor;
        event.target = decision.partitioned
            ? decision.category() : decision.target.label();
        event.category = decision.category();
        event.partitioned = decision.partitioned;
        event.feasible = faultResult.outcome.feasible;
        event.fallback = !faultResult.outcome.feasible;
        event.latencyMs = latencyMs;
        event.energyJ = measured.energyJ;
        event.accuracyPct = measured.accuracyPct;
        event.qosViolated = qosViolated;
        event.accuracyViolated =
            measured.accuracyPct < workload.request.accuracyTargetPct;
        event.faultAttempts = faultResult.attempts;
        event.faultTimeouts = faultResult.timeouts;
        event.faultDrops = faultResult.drops;
        event.faultLinkDown = faultResult.linkDown;
        event.faultFallback = faultResult.fellBack;
        event.faultWastedEnergyJ = faultResult.wastedEnergyJ;
        event.queueWaitMs = waitMs;
        event.degradeLevel = degraded ? degradeLevel : 0;
        event.breakerShortCircuit = shortCircuited;
        if (config().breakerEnabled) {
            event.breakerWlan = breakerStateName(wlanBreaker->state());
            event.breakerP2p = breakerStateName(p2pBreaker->state());
        }
        if (deviceId >= 0) {
            event.deviceId = deviceId;
            event.fleetEpoch = epoch;
            event.edgeWaitMs = edgeWaitMs;
            event.congestionDerate = derate;
            event.fleetBrownout = brownoutHit;
            if (shared != nullptr) {
                event.edgeQueueDepth = shared->edgeQueueDepth;
                event.edgeOutage = shared->edgeOutage;
            }
        }
        policy->describeLastDecision(event);
        obs.trace->record(std::move(event));
    }

    clockMs = finishMs;
    if (manager && config().checkpointIntervalRequests > 0
        && stats.served % config().checkpointIntervalRequests == 0) {
        checkpointNow();
    }
}

// One admit/pop/commit per iteration. With untilMs == +inf this runs
// the device to completion; a finite barrier pauses before processing
// anything at or beyond it.
void
DeviceState::advance(double untilMs)
{
    while (!loopDone && clockMs < untilMs) {
        admitUpTo(clockMs);
        if (queue->empty()) {
            if (arrivalsDone) {
                loopDone = true;
                break;
            }
            if (pendingArrivalMs >= untilMs) {
                // Idle until after the barrier; the next epoch jumps.
                break;
            }
            // Idle: jump to the next arrival.
            clockMs = std::max(clockMs, pendingArrivalMs);
            continue;
        }
        const int degradeLevel = queue->degradeLevel();
        const QueuedRequest queued = queue->pop();
        const int depthAtDequeue = static_cast<int>(queue->depth()) + 1;
        commitRequest(queued, degradeLevel, depthAtDequeue);
    }
}

// Churn: discard every queued request (the device's volatile in-flight
// state). Runs at an epoch barrier, single-threaded, so the shed
// records land in the device's metrics block and trace stream in a
// shard-independent order.
std::int64_t
DeviceState::discardQueue(std::int64_t atEpoch)
{
    epoch = atEpoch;
    std::int64_t dropped = 0;
    while (!queue->empty()) {
        const QueuedRequest queued = queue->pop();
        ++dropped;
        ++stats.shedChurn;
        recordShed(plan->workloads[
                       static_cast<std::size_t>(queued.networkIndex)],
                   kShedChurn, static_cast<int>(queue->depth()));
    }
    return dropped;
}

// Churn: consume the arrival stream while the device is offline.
// Arrivals keep their exact timing and workload draws (the workload
// RNG stays in lockstep with an online device's), but every one is
// lost instead of admitted. Advances the virtual clock to the barrier
// so a rejoin resumes in fleet time, not in the past.
std::int64_t
DeviceState::advanceOffline(double untilMs, std::int64_t atEpoch)
{
    if (loopDone) {
        return 0;
    }
    epoch = atEpoch;
    std::int64_t lost = 0;
    const std::vector<Workload> &mix = plan->workloads;
    while (!arrivalsDone && pendingArrivalMs < untilMs) {
        const int index =
            static_cast<int>(workloadRng.uniformInt(mix.size()));
        ++stats.arrivals;
        ++stats.shedChurn;
        ++lost;
        recordShed(mix[static_cast<std::size_t>(index)], kShedChurn,
                   static_cast<int>(queue->depth()));
        if (arrivals->count() >= config().totalRequests) {
            arrivalsDone = true;
        } else {
            pendingArrivalMs = arrivals->nextArrivalMs();
        }
    }
    clockMs = std::max(clockMs, untilMs);
    if (arrivalsDone && queue->empty()) {
        loopDone = true;
    }
    return lost;
}

ServeStats
DeviceState::finish()
{
    AS_CHECK(!finished);
    finished = true;

    // Fold the dense category tally into the report's name-keyed map.
    // Zero-count categories are skipped: the map only holds categories
    // that were served.
    for (std::size_t i = 0; i < categoryTally.size(); ++i) {
        if (categoryTally[i] > 0) {
            stats.categoryCounts[sim::targetCategoryName(
                static_cast<sim::TargetCategoryId>(i))] += categoryTally[i];
        }
    }

    // RNG fingerprint: one post-run draw per serving stream, hash
    // combined. Any draw an optimized path hoists, drops, or reorders
    // shifts at least one stream and changes the fingerprint.
    auto mixFingerprint = [](std::uint64_t fp, std::uint64_t draw) {
        return fp
            ^ (draw + 0x9e3779b97f4a7c15ULL + (fp << 6) + (fp >> 2));
    };
    std::uint64_t fingerprint = 0;
    fingerprint = mixFingerprint(fingerprint, envRng.next());
    fingerprint = mixFingerprint(fingerprint, decisionRng.next());
    fingerprint = mixFingerprint(fingerprint, execRng.next());
    fingerprint = mixFingerprint(fingerprint, workloadRng.next());
    stats.rngFingerprint = fingerprint;

    policy->finishEpisode();
    wlanBreaker->finalize(clockMs);
    p2pBreaker->finalize(clockMs);
    checkpointNow();

    stats.maxQueueDepth = queue->maxDepthSeen();
    stats.wlanBreaker = wlanBreaker->stats();
    stats.p2pBreaker = p2pBreaker->stats();
    stats.breakerShortCircuits =
        stats.wlanBreaker.shortCircuits + stats.p2pBreaker.shortCircuits;
    stats.endClockMs = clockMs;

    if (block != nullptr) {
        block->recordFinish(
            stats.arrivals,
            stats.wlanBreaker.opens + stats.p2pBreaker.opens,
            stats.wlanBreaker.probes + stats.p2pBreaker.probes,
            static_cast<double>(stats.maxQueueDepth),
            stats.wlanBreaker.totalOpenMs + stats.p2pBreaker.totalOpenMs);
    }
    if (ownedBlock) {
        ownedBlock->flush(*obs.metrics);
    }
    return std::move(stats);
}

DeviceLoop::DeviceLoop(const sim::InferenceSimulator &sim,
                       const ServeConfig &config,
                       const obs::ObsContext &obs, int deviceId,
                       const core::AutoScaleScheduler *warmStart)
    : owned_(std::make_unique<DeviceState>(sim, config, obs, deviceId,
                                           warmStart)),
      state_(owned_.get())
{
}

DeviceLoop::DeviceLoop(DeviceState *state) : state_(state)
{
}

DeviceLoop::~DeviceLoop() = default;
DeviceLoop::DeviceLoop(DeviceLoop &&) noexcept = default;
DeviceLoop &DeviceLoop::operator=(DeviceLoop &&) noexcept = default;

void
DeviceLoop::advance(double untilMs, const SharedSnapshot *shared,
                    std::int64_t epoch)
{
    state_->shared = shared;
    state_->epoch = epoch;
    state_->advance(untilMs);
    state_->shared = nullptr;
}

bool
DeviceLoop::done() const
{
    return state_->loopDone;
}

double
DeviceLoop::clockMs() const
{
    return state_->clockMs;
}

EpochUsage
DeviceLoop::takeEpochUsage()
{
    const EpochUsage taken = state_->usage;
    state_->usage = EpochUsage{};
    return taken;
}

core::AutoScaleScheduler *
DeviceLoop::scheduler()
{
    return state_->learner != nullptr ? &state_->learner->scheduler()
                                      : nullptr;
}

const core::AutoScaleScheduler *
DeviceLoop::scheduler() const
{
    return state_->learner != nullptr ? &state_->learner->scheduler()
                                      : nullptr;
}

ServeStats
DeviceLoop::finish()
{
    return state_->finish();
}

std::size_t
DeviceLoop::queueDepth() const
{
    return state_->queue->depth();
}

std::uint64_t
DeviceLoop::stateDigest() const
{
    // Non-destructive (unlike the RNG fingerprint, which consumes one
    // draw per stream): a barrier-time fold of the loop state a replay
    // must reproduce. Any divergence in arrivals, admission, serving,
    // energy, or virtual time shifts at least one term.
    auto fold = [](std::uint64_t hash, std::uint64_t value) {
        return hash
            ^ (value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2));
    };
    auto foldDouble = [&fold](std::uint64_t hash, double value) {
        std::uint64_t bits = 0;
        static_assert(sizeof(bits) == sizeof(value));
        __builtin_memcpy(&bits, &value, sizeof(bits));
        return fold(hash, bits);
    };
    const DeviceState &state = *state_;
    std::uint64_t digest = 0;
    digest = foldDouble(digest, state.clockMs);
    digest = foldDouble(digest, state.pendingArrivalMs);
    digest = fold(digest, static_cast<std::uint64_t>(state.stats.arrivals));
    digest = fold(digest, static_cast<std::uint64_t>(state.stats.admitted));
    digest = fold(digest, static_cast<std::uint64_t>(state.stats.served));
    digest = fold(digest,
                  static_cast<std::uint64_t>(state.stats.shedDeadline
                                             + state.stats.shedOverflow
                                             + state.stats.shedStale));
    digest =
        fold(digest, static_cast<std::uint64_t>(state.stats.shedChurn));
    digest = foldDouble(digest, state.stats.energyJ);
    digest = fold(digest, state.queue->depth());
    digest = fold(digest, state.loopDone ? 1 : 0);
    return digest;
}

std::int64_t
DeviceLoop::churnCrash(std::int64_t epoch)
{
    const std::int64_t dropped = state_->discardQueue(epoch);
    // The in-flight transition dies with the process: a virtual no-op
    // for fixed policies, AutoScaleScheduler::discardPending for the
    // learner — the exact pre-§18 behavior.
    state_->policy->discardPending();
    return dropped;
}

std::int64_t
DeviceLoop::churnLeave(std::int64_t epoch)
{
    const std::int64_t dropped = state_->discardQueue(epoch);
    state_->policy->finishEpisode();
    return dropped;
}

std::int64_t
DeviceLoop::advanceOffline(double untilMs, std::int64_t epoch)
{
    return state_->advanceOffline(untilMs, epoch);
}

} // namespace autoscale::serve
