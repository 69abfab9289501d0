#include "baselines/fixed.h"

#include <limits>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace autoscale::baselines {

namespace {

/**
 * Choose the best target among @p candidates under a clean (no
 * variance) environment: minimum expected energy among those meeting
 * the QoS and accuracy constraints, falling back to minimum energy
 * among accuracy-meeting targets, then to any feasible target.
 */
sim::ExecutionTarget
pickOffline(const sim::InferenceSimulator &sim,
            const sim::InferenceRequest &request,
            const std::vector<sim::ExecutionTarget> &candidates)
{
    const env::EnvState clean;
    const sim::ExecutionTarget *best_ok = nullptr;
    double best_ok_energy = std::numeric_limits<double>::infinity();
    const sim::ExecutionTarget *best_acc = nullptr;
    double best_acc_energy = std::numeric_limits<double>::infinity();
    const sim::ExecutionTarget *any = nullptr;

    for (const auto &candidate : candidates) {
        const sim::Outcome outcome =
            sim.expected(*request.network, candidate, clean);
        if (!outcome.feasible) {
            continue;
        }
        if (any == nullptr) {
            any = &candidate;
        }
        if (outcome.accuracyPct < request.accuracyTargetPct) {
            continue;
        }
        if (outcome.estimatedEnergyJ < best_acc_energy) {
            best_acc_energy = outcome.estimatedEnergyJ;
            best_acc = &candidate;
        }
        if (outcome.latencyMs < request.qosMs
            && outcome.estimatedEnergyJ < best_ok_energy) {
            best_ok_energy = outcome.estimatedEnergyJ;
            best_ok = &candidate;
        }
    }
    if (best_ok != nullptr) {
        return *best_ok;
    }
    if (best_acc != nullptr) {
        return *best_acc;
    }
    AS_CHECK(any != nullptr);
    return *any;
}

class EdgeCpuFp32Policy : public SchedulingPolicy {
  public:
    explicit EdgeCpuFp32Policy(const sim::InferenceSimulator &sim)
        : name_("Edge (CPU FP32)")
    {
        target_.place = sim::TargetPlace::Local;
        target_.proc = platform::ProcKind::MobileCpu;
        target_.vfIndex = sim.localDevice().cpu().maxVfIndex();
        target_.precision = dnn::Precision::FP32;
    }

    const std::string &name() const override { return name_; }

    Decision
    decide(const sim::InferenceRequest &, const env::EnvState &,
           Rng &) override
    {
        return makeTargetDecision(target_);
    }

  private:
    std::string name_;
    sim::ExecutionTarget target_;
};

/** Shared base for the per-NN offline-profiled fixed policies. */
class OfflineBestPolicy : public SchedulingPolicy {
  public:
    OfflineBestPolicy(const sim::InferenceSimulator &sim, std::string name,
                      std::vector<sim::ExecutionTarget> candidates)
        : sim_(sim), name_(std::move(name)),
          candidates_(std::move(candidates))
    {
        AS_CHECK(!candidates_.empty());
    }

    const std::string &name() const override { return name_; }

    Decision
    decide(const sim::InferenceRequest &request, const env::EnvState &,
           Rng &) override
    {
        const sim::ExecutionTarget *pick = find(request);
        if (pick == nullptr) {
            // A frozen policy is shared by concurrent deciders, so it
            // must never write.
            AS_CHECK(!frozen_);
            pick = &remember(request,
                             pickOffline(sim_, request, candidates_));
        }
        return makeTargetDecision(*pick);
    }

    /** Profile every request of @p profile; decide() then only reads. */
    void
    freeze(const std::vector<sim::InferenceRequest> &profile)
    {
        for (const sim::InferenceRequest &request : profile) {
            if (find(request) == nullptr) {
                remember(request, pickOffline(sim_, request, candidates_));
            }
        }
        frozen_ = true;
    }

  private:
    /** A network's pick under one (QoS, accuracy target) pair. */
    struct Pick {
        double qosMs;
        double accuracyTargetPct;
        sim::ExecutionTarget target;
    };

    const sim::ExecutionTarget *
    find(const sim::InferenceRequest &request) const
    {
        const auto id =
            static_cast<std::size_t>(request.network->modelId());
        if (id >= picks_.size()) {
            return nullptr;
        }
        for (const Pick &pick : picks_[id]) {
            if (pick.qosMs == request.qosMs
                && pick.accuracyTargetPct == request.accuracyTargetPct) {
                return &pick.target;
            }
        }
        return nullptr;
    }

    const sim::ExecutionTarget &
    remember(const sim::InferenceRequest &request,
             const sim::ExecutionTarget &target)
    {
        const dnn::ModelId id = request.network->modelId();
        AS_CHECK(id >= 0);
        if (static_cast<std::size_t>(id) >= picks_.size()) {
            picks_.resize(static_cast<std::size_t>(id) + 1);
        }
        std::vector<Pick> &picks = picks_[static_cast<std::size_t>(id)];
        picks.push_back(
            Pick{request.qosMs, request.accuracyTargetPct, target});
        return picks.back().target;
    }

    const sim::InferenceSimulator &sim_;
    std::string name_;
    std::vector<sim::ExecutionTarget> candidates_;
    /** Indexed by modelId; one entry per profiled target pair. */
    std::vector<std::vector<Pick>> picks_;
    bool frozen_ = false;
};

std::vector<sim::ExecutionTarget>
localProcessorCandidates(const platform::Device &device,
                         sim::TargetPlace place)
{
    std::vector<sim::ExecutionTarget> candidates;
    candidates.push_back(sim::ExecutionTarget{
        place, platform::ProcKind::MobileCpu, device.cpu().maxVfIndex(),
        dnn::Precision::FP32});
    if (device.hasGpu()) {
        candidates.push_back(sim::ExecutionTarget{
            place, platform::ProcKind::MobileGpu,
            device.gpu().maxVfIndex(), dnn::Precision::FP32});
    }
    if (device.hasDsp()) {
        candidates.push_back(sim::ExecutionTarget{
            place, platform::ProcKind::MobileDsp, 0,
            dnn::Precision::INT8});
    }
    if (device.hasAccelerator()) {
        candidates.push_back(sim::ExecutionTarget{
            place, platform::ProcKind::MobileNpu, 0,
            dnn::Precision::INT8});
    }
    return candidates;
}

class CloudPolicy : public SchedulingPolicy {
  public:
    explicit CloudPolicy(const sim::InferenceSimulator &sim)
        : name_("Cloud")
    {
        target_.place = sim::TargetPlace::Cloud;
        target_.proc = platform::ProcKind::ServerGpu;
        target_.vfIndex = sim.cloudDevice().gpu().maxVfIndex();
        target_.precision = dnn::Precision::FP32;
    }

    const std::string &name() const override { return name_; }

    Decision
    decide(const sim::InferenceRequest &, const env::EnvState &,
           Rng &) override
    {
        return makeTargetDecision(target_);
    }

  private:
    std::string name_;
    sim::ExecutionTarget target_;
};

std::unique_ptr<OfflineBestPolicy>
edgeBest(const sim::InferenceSimulator &sim)
{
    return std::make_unique<OfflineBestPolicy>(
        sim, "Edge (Best)",
        localProcessorCandidates(sim.localDevice(),
                                 sim::TargetPlace::Local));
}

std::unique_ptr<OfflineBestPolicy>
connectedEdge(const sim::InferenceSimulator &sim)
{
    return std::make_unique<OfflineBestPolicy>(
        sim, "Connected Edge",
        localProcessorCandidates(sim.connectedDevice(),
                                 sim::TargetPlace::ConnectedEdge));
}

} // namespace

std::unique_ptr<SchedulingPolicy>
makeEdgeCpuFp32Policy(const sim::InferenceSimulator &sim)
{
    return std::make_unique<EdgeCpuFp32Policy>(sim);
}

std::unique_ptr<SchedulingPolicy>
makeEdgeBestPolicy(const sim::InferenceSimulator &sim)
{
    return edgeBest(sim);
}

std::unique_ptr<SchedulingPolicy>
makeCloudPolicy(const sim::InferenceSimulator &sim)
{
    return std::make_unique<CloudPolicy>(sim);
}

std::unique_ptr<SchedulingPolicy>
makeConnectedEdgePolicy(const sim::InferenceSimulator &sim)
{
    return connectedEdge(sim);
}

std::unique_ptr<SchedulingPolicy>
makeServingFixedPolicy(const std::string &name,
                       const sim::InferenceSimulator &sim,
                       const std::vector<sim::InferenceRequest> &profile)
{
    if (name == "cloud") {
        return makeCloudPolicy(sim);
    }
    if (name == "edge-cpu") {
        return makeEdgeCpuFp32Policy(sim);
    }
    std::unique_ptr<OfflineBestPolicy> policy;
    if (name == "connected-edge") {
        policy = connectedEdge(sim);
    } else if (name == "edge-best") {
        policy = edgeBest(sim);
    } else {
        return nullptr;
    }
    policy->freeze(profile);
    return policy;
}

} // namespace autoscale::baselines
