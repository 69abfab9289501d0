#include "sim/simulator.h"

#include <algorithm>

#include "dnn/accuracy.h"
#include "env/interference.h"
#include "platform/device_zoo.h"
#include "platform/power.h"
#include "util/logging.h"

namespace autoscale::sim {

namespace {

/** Multiplicative measurement-noise sigmas (log-normal). */
constexpr double kComputeNoiseSigma = 0.04;
constexpr double kNetworkNoiseSigma = 0.06;
/**
 * Gap between the Renergy estimator and the power meter. Log-normal with
 * sigma 0.09 yields a mean absolute percentage error of ~7.3%, matching
 * Section IV-A.
 */
constexpr double kEnergyModelSigma = 0.09;

bool
isServerKind(platform::ProcKind kind)
{
    return kind == platform::ProcKind::ServerCpu
        || kind == platform::ProcKind::ServerGpu
        || kind == platform::ProcKind::ServerTpu;
}

bool
isCoProcessor(platform::ProcKind kind)
{
    return kind == platform::ProcKind::MobileGpu
        || kind == platform::ProcKind::MobileDsp
        || kind == platform::ProcKind::MobileNpu;
}

} // namespace

InferenceSimulator::InferenceSimulator(platform::Device local,
                                       platform::Device connected,
                                       platform::Device cloud,
                                       net::WirelessLink wlan,
                                       net::WirelessLink p2p)
    : local_(std::move(local)), connected_(std::move(connected)),
      cloud_(std::move(cloud)), wlan_(wlan), p2p_(p2p)
{
    AS_CHECK(cloud_.tier() == platform::DeviceTier::Server);
    AS_CHECK(connected_.tier() != platform::DeviceTier::Server);
    AS_CHECK(wlan_.kind() == net::LinkKind::Wlan);
    AS_CHECK(p2p_.kind() == net::LinkKind::PeerToPeer);

    costCache_.build(local_, connected_, cloud_);

    for (std::size_t place = 0; place < kNumPlaces; ++place) {
        for (std::size_t kind = 0; kind < kNumProcKinds; ++kind) {
            const auto target_place = static_cast<TargetPlace>(place);
            const auto proc_kind = static_cast<platform::ProcKind>(kind);
            const platform::Processor *proc =
                deviceAt(target_place).processor(proc_kind);
            targetVfSteps_[place][kind] =
                proc != nullptr ? proc->numVfSteps() : 0;
            for (std::size_t precision = 0; precision < kNumPrecisions;
                 ++precision) {
                const ExecutionTarget target{
                    target_place, proc_kind, 0,
                    static_cast<dnn::Precision>(precision)};
                for (const bool usable : {false, true}) {
                    targetAvailable_[usable][place][kind][precision] =
                        resolveTargetAvailable(target, usable);
                }
            }
        }
    }

    // bestLocalTarget candidates in the exact enumeration order of the
    // direct path (processors() × precision at top frequency), split by
    // the only network-dependent feasibility clause so the per-call
    // filter reduces to a list selection.
    for (const platform::Processor *proc : local_.processors()) {
        for (const dnn::Precision precision :
             {dnn::Precision::FP32, dnn::Precision::FP16,
              dnn::Precision::INT8}) {
            const ExecutionTarget candidate{
                TargetPlace::Local, proc->kind(), proc->maxVfIndex(),
                precision};
            if (targetAvailable(candidate, true)) {
                localFallbacks_.push_back(candidate);
            }
            if (targetAvailable(candidate, false)) {
                localFallbacksRcOnly_.push_back(candidate);
            }
        }
    }
}

InferenceSimulator
InferenceSimulator::makeDefault(platform::Device local)
{
    return InferenceSimulator(std::move(local), platform::makeGalaxyTabS6(),
                              platform::makeCloudServer(),
                              net::WirelessLink::defaultWlan(),
                              net::WirelessLink::defaultP2p());
}

const platform::Device &
InferenceSimulator::deviceAt(TargetPlace place) const
{
    switch (place) {
      case TargetPlace::Local: return local_;
      case TargetPlace::ConnectedEdge: return connected_;
      case TargetPlace::Cloud: return cloud_;
    }
    panic("deviceAt: unknown place");
}

void
InferenceSimulator::setObserver(obs::MetricsRegistry *metrics)
{
    metricsObserver_ = metrics;
    counters_ = ObserverCounters{};
    if (metrics == nullptr) {
        return;
    }
    // Resolve every handle once; the hot path then increments through
    // stable pointers with no per-event name lookup. Handles stay valid
    // until the registry is cleared or destroyed (it must outlive the
    // simulator per the setObserver contract).
    counters_.runs = &metrics->counter("sim.runs");
    counters_.expected = &metrics->counter("sim.expected");
    counters_.infeasible = &metrics->counter("sim.infeasible");
    counters_.execPartitioned = &metrics->counter("sim.exec.partitioned");
    counters_.execLocal = &metrics->counter("sim.exec.local");
    counters_.execConnectedEdge =
        &metrics->counter("sim.exec.connected_edge");
    counters_.execCloud = &metrics->counter("sim.exec.cloud");
    counters_.faultFallbacks = &metrics->counter("sim.fault.fallbacks");
}

void
InferenceSimulator::countExecution(TargetPlace place, bool noisy,
                                   bool feasible, bool partitioned) const
{
    if (metricsObserver_ == nullptr) {
        return;
    }
    // Integer counters only: they commute, so concurrent evaluation
    // loops sharing this simulator still export deterministic totals.
    (noisy ? counters_.runs : counters_.expected)->add();
    if (!feasible) {
        counters_.infeasible->add();
        return;
    }
    if (partitioned) {
        counters_.execPartitioned->add();
    }
    switch (place) {
      case TargetPlace::Local: counters_.execLocal->add(); break;
      case TargetPlace::ConnectedEdge:
        counters_.execConnectedEdge->add();
        break;
      case TargetPlace::Cloud: counters_.execCloud->add(); break;
    }
}

bool
InferenceSimulator::targetAvailable(const ExecutionTarget &target,
                                    bool coProcessorsUsable) const
{
    if (!useCostCache_) {
        return resolveTargetAvailable(target, coProcessorsUsable);
    }
    const auto place = static_cast<std::size_t>(target.place);
    const auto kind = static_cast<std::size_t>(target.proc);
    return targetAvailable_[coProcessorsUsable][place][kind]
                           [precisionIndex(target.precision)]
        && target.vfIndex < targetVfSteps_[place][kind];
}

bool
InferenceSimulator::resolveTargetAvailable(const ExecutionTarget &target,
                                           bool coProcessorsUsable) const
{
    const platform::Device &device = deviceAt(target.place);
    const platform::Processor *proc = device.processor(target.proc);
    if (proc == nullptr) {
        return false;
    }
    if (target.place == TargetPlace::Cloud) {
        if (!isServerKind(target.proc)) {
            return false;
        }
    } else if (isServerKind(target.proc)) {
        return false;
    }
    if (!proc->supportsPrecision(target.precision)) {
        return false;
    }
    if (target.vfIndex >= proc->numVfSteps()) {
        return false;
    }
    // Middleware limitation: recurrent/attention networks are not
    // deployable on mobile co-processors (Section III, footnote 3).
    if (isCoProcessor(target.proc) && !coProcessorsUsable) {
        return false;
    }
    return true;
}

bool
InferenceSimulator::isFeasible(const dnn::Network &network,
                               const ExecutionTarget &target) const
{
    return targetAvailable(target, network.supportedOnCoProcessors());
}

double
InferenceSimulator::remoteComputeMs(const dnn::Network &network,
                                    TargetPlace place,
                                    platform::ProcKind proc,
                                    dnn::Precision precision) const
{
    const platform::Processor *p = deviceAt(place).processor(proc);
    AS_CHECK(p != nullptr);
    return p->networkLatencyMs(network, precision, p->maxVfIndex());
}

Outcome
InferenceSimulator::measure(const dnn::Network &network,
                            const ExecutionTarget &target,
                            const env::EnvState &env, Rng *rng,
                            double remoteSlowdown) const
{
    Outcome outcome;
    if (!isFeasible(network, target)) {
        countExecution(target.place, rng != nullptr, false, false);
        return outcome;
    }
    countExecution(target.place, rng != nullptr, true, false);
    outcome.feasible = true;
    // The id lookup is a flat array read; the name overload is the
    // string-keyed probe the --direct benchmark baseline measures. Both
    // return the same row.
    outcome.accuracyPct = useCostCache_
        ? dnn::inferenceAccuracy(network.modelId(), target.precision)
        : dnn::inferenceAccuracy(network.name(), target.precision);

    // Rest-of-system power charged to the inference for its duration.
    // The co-runner's own consumption is NOT attributed to the
    // inference (it is a separate consumer the paper normalizes away);
    // it still matters indirectly through slowdown and heat.
    const double system_power_w = local_.basePowerW();

    // Zoo networks on the cost cache read every latency from their
    // config table; anything else (--direct, synthetic networks) takes
    // the per-layer roofline path.
    const CostModelCache::NetworkEntry *entry =
        useCostCache_ ? costCache_.entry(network) : nullptr;
    const CostModelCache::ConfigTable *table = entry != nullptr
        ? entry->table(target.place, target.proc, target.precision)
        : nullptr;

    if (target.place == TargetPlace::Local) {
        const platform::Processor *proc = local_.processor(target.proc);
        const platform::Derate derate = env::derateFor(target.proc, env);
        double compute_ms = table != nullptr
            ? table->networkLatencyMs(target.vfIndex, derate)
            : proc->networkLatencyMs(network, target.precision,
                                     target.vfIndex, derate);
        if (rng != nullptr) {
            compute_ms *= rng->lognormalFactor(kComputeNoiseSigma);
        }
        outcome.computeMs = compute_ms;
        outcome.latencyMs = compute_ms;

        const int cores = proc->kind() == platform::ProcKind::MobileCpu
            ? proc->numCores() : 1;
        const double component_j = platform::uniformBusyEnergyJ(
                                       *proc, target.vfIndex, compute_ms,
                                       compute_ms, cores)
            * proc->precisionPowerFactor(target.precision);
        outcome.estimatedEnergyJ =
            component_j + system_power_w * compute_ms * 1e-3;
    } else {
        const bool to_cloud = target.place == TargetPlace::Cloud;
        const net::WirelessLink &link = to_cloud ? wlan_ : p2p_;
        const double rssi =
            to_cloud ? env.rssiWlanDbm : env.rssiP2pDbm;

        net::TransferResult transfer = entry != nullptr
            ? link.transferBits(entry->txBits, entry->rxBits, rssi)
            : link.transfer(network.inputBytes(), network.outputBytes(),
                            rssi);
        // Remote systems run at their top frequency with no on-device
        // interference, so the table's unit-derate total at the top V/F
        // step is the whole answer: one read instead of the per-layer
        // roofline loop.
        double remote_ms = (table != nullptr
                                ? table->vf.back().totalMs
                                : remoteComputeMs(network, target.place,
                                                  target.proc,
                                                  target.precision))
            * remoteSlowdown;
        if (rng != nullptr) {
            const double net_factor =
                rng->lognormalFactor(kNetworkNoiseSigma);
            transfer.txMs *= net_factor;
            transfer.rxMs *= net_factor;
            transfer.energyJ *= net_factor;
            remote_ms *= rng->lognormalFactor(kComputeNoiseSigma);
        }
        outcome.computeMs = remote_ms;
        outcome.txMs = transfer.txMs;
        outcome.rxMs = transfer.rxMs;
        outcome.latencyMs = transfer.totalMs() + remote_ms;

        // Eq. (4): radio TX/RX energy plus device idle power for the
        // remainder of the round trip.
        outcome.estimatedEnergyJ = transfer.energyJ
            + system_power_w * outcome.latencyMs * 1e-3;
    }

    outcome.energyJ = outcome.estimatedEnergyJ;
    if (rng != nullptr) {
        outcome.energyJ *= rng->lognormalFactor(kEnergyModelSigma);
    }
    return outcome;
}

Outcome
InferenceSimulator::run(const dnn::Network &network,
                        const ExecutionTarget &target,
                        const env::EnvState &env, Rng &rng) const
{
    return measure(network, target, env, &rng);
}

Outcome
InferenceSimulator::expected(const dnn::Network &network,
                             const ExecutionTarget &target,
                             const env::EnvState &env) const
{
    return measure(network, target, env, nullptr);
}

ExecutionTarget
InferenceSimulator::bestLocalTarget(const dnn::Network &network,
                                    const env::EnvState &env,
                                    double accuracyTargetPct) const
{
    // Last resort: local CPU FP32 at top frequency is always feasible.
    ExecutionTarget best{TargetPlace::Local, platform::ProcKind::MobileCpu,
                         local_.cpu().maxVfIndex(), dnn::Precision::FP32};
    double best_j = -1.0;
    if (useCostCache_) {
        // The feasibility filter was hoisted to construction; the
        // candidate order (and therefore every tie-break and the
        // expected() call sequence) matches the direct loop exactly.
        const std::vector<ExecutionTarget> &candidates =
            network.supportedOnCoProcessors() ? localFallbacks_
                                              : localFallbacksRcOnly_;
        const dnn::ModelId id = network.modelId();
        for (const ExecutionTarget &candidate : candidates) {
            if (dnn::inferenceAccuracy(id, candidate.precision)
                < accuracyTargetPct) {
                continue;
            }
            const Outcome o = expected(network, candidate, env);
            if (best_j < 0.0 || o.energyJ < best_j) {
                best = candidate;
                best_j = o.energyJ;
            }
        }
        return best;
    }
    for (const platform::Processor *proc : local_.processors()) {
        for (const dnn::Precision precision :
             {dnn::Precision::FP32, dnn::Precision::FP16,
              dnn::Precision::INT8}) {
            ExecutionTarget candidate{TargetPlace::Local, proc->kind(),
                                      proc->maxVfIndex(), precision};
            if (!isFeasible(network, candidate)) {
                continue;
            }
            if (dnn::inferenceAccuracy(network.name(), precision)
                < accuracyTargetPct) {
                continue;
            }
            const Outcome o = expected(network, candidate, env);
            if (best_j < 0.0 || o.energyJ < best_j) {
                best = candidate;
                best_j = o.energyJ;
            }
        }
    }
    return best;
}

FaultOutcome
InferenceSimulator::runWithFaults(const dnn::Network &network,
                                  const ExecutionTarget &target,
                                  const env::EnvState &env,
                                  const fault::RetryPolicy &retry,
                                  double accuracyTargetPct, Rng &rng) const
{
    FaultOutcome result;
    result.executedTarget = target;
    // Local decisions carry no transfer to fail (throttle events act
    // through env.thermalFactor), and infeasible targets keep the
    // plain middleware-rejection semantics the harness already handles.
    if (target.place == TargetPlace::Local
        || !isFeasible(network, target)) {
        result.outcome = run(network, target, env, rng);
        return result;
    }

    const fault::FaultState &fault = env.fault;
    const bool to_cloud = target.place == TargetPlace::Cloud;
    const net::WirelessLink &link = to_cloud ? wlan_ : p2p_;
    const double rssi = to_cloud ? env.rssiWlanDbm : env.rssiP2pDbm;
    const bool link_down =
        (to_cloud ? fault.wlanBlackout : fault.p2pBlackout)
        || (to_cloud && fault.cloudDown);
    const double slowdown = to_cloud ? fault.cloudSlowdown : 1.0;
    const double system_power_w = local_.basePowerW();

    for (int attempt = 0; attempt < retry.maxAttempts(); ++attempt) {
        if (attempt > 0) {
            // Exponential-backoff gap: the device idles, waiting.
            const double gap_ms = retry.backoffMs(attempt);
            result.wastedMs += gap_ms;
            result.wastedEnergyJ += system_power_w * gap_ms * 1e-3;
        }
        ++result.attempts;
        if (link_down) {
            // The radio probes a dead link at TX power until the
            // deadline expires; nothing ever comes back.
            result.linkDown = true;
            ++result.timeouts;
            result.wastedMs += retry.timeoutMs;
            result.wastedEnergyJ += (link.txPowerW(rssi) + system_power_w)
                * retry.timeoutMs * 1e-3;
            continue;
        }
        if (fault.transferDropProb > 0.0
            && rng.bernoulli(fault.transferDropProb)) {
            // The request went out (uplink energy spent) but the
            // response never arrives; the device waits out the
            // deadline before retrying.
            ++result.drops;
            const net::TransferResult probe = link.transfer(
                network.inputBytes(), network.outputBytes(), rssi);
            result.wastedMs += retry.timeoutMs;
            result.wastedEnergyJ += link.txPowerW(rssi) * probe.txMs * 1e-3
                + system_power_w * retry.timeoutMs * 1e-3;
            continue;
        }
        Outcome attempt_outcome =
            measure(network, target, env, &rng, slowdown);
        if (attempt_outcome.latencyMs > retry.timeoutMs) {
            // Too slow: the device abandons the attempt at the
            // deadline, having spent the pro-rated share of its energy.
            ++result.timeouts;
            result.wastedMs += retry.timeoutMs;
            result.wastedEnergyJ += attempt_outcome.energyJ
                * (retry.timeoutMs / attempt_outcome.latencyMs);
            continue;
        }
        attempt_outcome.latencyMs += result.wastedMs;
        attempt_outcome.energyJ += result.wastedEnergyJ;
        attempt_outcome.estimatedEnergyJ += result.wastedEnergyJ;
        result.outcome = attempt_outcome;
        return result;
    }

    // Every remote attempt failed: forced fallback to the best
    // feasible local target, still charging all the waste.
    result.fellBack = true;
    result.executedTarget =
        bestLocalTarget(network, env, accuracyTargetPct);
    Outcome fallback = run(network, result.executedTarget, env, rng);
    fallback.latencyMs += result.wastedMs;
    fallback.energyJ += result.wastedEnergyJ;
    fallback.estimatedEnergyJ += result.wastedEnergyJ;
    result.outcome = fallback;
    if (metricsObserver_ != nullptr) {
        counters_.faultFallbacks->add();
    }
    return result;
}

Outcome
InferenceSimulator::measurePartitioned(const dnn::Network &network,
                                       const PartitionSpec &spec,
                                       const env::EnvState &env,
                                       Rng *rng) const
{
    AS_CHECK(spec.remotePlace != TargetPlace::Local);
    const std::size_t num_layers = network.layers().size();
    AS_CHECK(spec.splitLayer <= num_layers);

    // Degenerate splits reduce to whole-model execution.
    if (spec.splitLayer == num_layers) {
        ExecutionTarget target{TargetPlace::Local, spec.localProc,
                               spec.vfIndex, spec.localPrecision};
        return measure(network, target, env, rng);
    }

    // Remote side: the best processor at the remote place.
    const platform::Device &remote = deviceAt(spec.remotePlace);
    platform::ProcKind remote_proc;
    dnn::Precision remote_prec = dnn::Precision::FP32;
    if (spec.remotePlace == TargetPlace::Cloud) {
        remote_proc = platform::ProcKind::ServerGpu;
    } else if (remote.hasDsp() && network.supportedOnCoProcessors()) {
        remote_proc = platform::ProcKind::MobileDsp;
        remote_prec = dnn::Precision::INT8;
    } else if (remote.hasGpu() && network.supportedOnCoProcessors()) {
        remote_proc = platform::ProcKind::MobileGpu;
    } else {
        remote_proc = platform::ProcKind::MobileCpu;
    }

    if (spec.splitLayer == 0) {
        ExecutionTarget target{spec.remotePlace, remote_proc, 0, remote_prec};
        const platform::Processor *rp = remote.processor(remote_proc);
        AS_CHECK(rp != nullptr);
        target.vfIndex = rp->maxVfIndex();
        return measure(network, target, env, rng);
    }

    Outcome outcome;
    const platform::Processor *proc = local_.processor(spec.localProc);
    if (proc == nullptr || !proc->supportsPrecision(spec.localPrecision)
        || spec.vfIndex >= proc->numVfSteps()
        || (isCoProcessor(spec.localProc)
            && !network.supportedOnCoProcessors())) {
        countExecution(spec.remotePlace, rng != nullptr, false, true);
        return outcome;
    }
    countExecution(spec.remotePlace, rng != nullptr, true, true);
    outcome.feasible = true;

    const CostModelCache::NetworkEntry *entry =
        useCostCache_ ? costCache_.entry(network) : nullptr;

    // Local prefix [0, split): one prefix-sum read when the derate is
    // the identity, an exact table-driven replay otherwise.
    const platform::Derate derate = env::derateFor(spec.localProc, env);
    const CostModelCache::ConfigTable *local_table = entry != nullptr
        ? entry->table(TargetPlace::Local, spec.localProc,
                       spec.localPrecision)
        : nullptr;
    double local_ms = local_table != nullptr
        ? local_table->rangeLatencyMs(0, spec.splitLayer, spec.vfIndex,
                                      derate)
        : proc->layerRangeLatencyMs(network, 0, spec.splitLayer,
                                    spec.localPrecision, spec.vfIndex,
                                    derate);

    // Remote tail [split, L) at top frequency, unit derate: one
    // tail-sum read.
    const platform::Processor *rp = remote.processor(remote_proc);
    AS_CHECK(rp != nullptr);
    const CostModelCache::ConfigTable *remote_table = entry != nullptr
        ? entry->table(spec.remotePlace, remote_proc, remote_prec)
        : nullptr;
    double remote_ms = remote_table != nullptr
        ? remote_table->rangeLatencyMs(spec.splitLayer, num_layers,
                                       rp->maxVfIndex(),
                                       platform::Derate{})
        : rp->layerRangeLatencyMs(network, spec.splitLayer, num_layers,
                                  remote_prec, rp->maxVfIndex());

    const bool to_cloud = spec.remotePlace == TargetPlace::Cloud;
    const net::WirelessLink &link = to_cloud ? wlan_ : p2p_;
    const double rssi = to_cloud ? env.rssiWlanDbm : env.rssiP2pDbm;
    net::TransferResult transfer;
    if (entry != nullptr) {
        transfer = link.transferBits(
            entry->splitTxBits[precisionIndex(spec.localPrecision)]
                              [spec.splitLayer],
            entry->rxBits, rssi);
    } else {
        // Intermediate activations of the boundary layer cross the link
        // at the local precision.
        const auto &boundary = network.layers()[spec.splitLayer - 1];
        const auto tx_bytes = static_cast<std::uint64_t>(
            static_cast<double>(boundary.activationBytes)
            * dnn::bytesPerElement(spec.localPrecision) / 4.0);
        transfer = link.transfer(std::max<std::uint64_t>(tx_bytes, 1),
                                 network.outputBytes(), rssi);
    }

    if (rng != nullptr) {
        local_ms *= rng->lognormalFactor(kComputeNoiseSigma);
        remote_ms *= rng->lognormalFactor(kComputeNoiseSigma);
        const double net_factor = rng->lognormalFactor(kNetworkNoiseSigma);
        transfer.txMs *= net_factor;
        transfer.rxMs *= net_factor;
        transfer.energyJ *= net_factor;
    }

    outcome.computeMs = local_ms + remote_ms;
    outcome.txMs = transfer.txMs;
    outcome.rxMs = transfer.rxMs;
    outcome.latencyMs = local_ms + transfer.totalMs() + remote_ms;
    outcome.accuracyPct = useCostCache_
        ? std::min(
              dnn::inferenceAccuracy(network.modelId(),
                                     spec.localPrecision),
              dnn::inferenceAccuracy(network.modelId(), remote_prec))
        : std::min(
              dnn::inferenceAccuracy(network.name(), spec.localPrecision),
              dnn::inferenceAccuracy(network.name(), remote_prec));

    const int cores = proc->kind() == platform::ProcKind::MobileCpu
        ? proc->numCores() : 1;
    const double local_j = platform::uniformBusyEnergyJ(
                               *proc, spec.vfIndex, local_ms, local_ms,
                               cores)
        * proc->precisionPowerFactor(spec.localPrecision);
    const double system_power_w = local_.basePowerW();
    outcome.estimatedEnergyJ = local_j + transfer.energyJ
        + system_power_w * outcome.latencyMs * 1e-3;
    outcome.energyJ = outcome.estimatedEnergyJ;
    if (rng != nullptr) {
        outcome.energyJ *= rng->lognormalFactor(kEnergyModelSigma);
    }
    return outcome;
}

Outcome
InferenceSimulator::runPartitioned(const dnn::Network &network,
                                   const PartitionSpec &spec,
                                   const env::EnvState &env, Rng &rng) const
{
    return measurePartitioned(network, spec, env, &rng);
}

Outcome
InferenceSimulator::expectedPartitioned(const dnn::Network &network,
                                        const PartitionSpec &spec,
                                        const env::EnvState &env) const
{
    return measurePartitioned(network, spec, env, nullptr);
}

} // namespace autoscale::sim
