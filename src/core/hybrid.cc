#include "core/hybrid.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/action_space.h"
#include "util/logging.h"

namespace autoscale::core {

std::string
HybridAction::label() const
{
    if (!partitioned) {
        return target.label();
    }
    std::ostringstream oss;
    oss << "Split " << static_cast<int>(splitFraction * 100.0) << "% "
        << platform::procKindName(localProc) << " -> "
        << sim::targetPlaceName(remotePlace);
    return oss.str();
}

std::string
HybridAction::category() const
{
    if (!partitioned) {
        return target.category();
    }
    return std::string("Partitioned (")
        + sim::targetPlaceName(remotePlace) + ")";
}

sim::PartitionSpec
materializePartition(const HybridAction &action,
                     const dnn::Network &network)
{
    AS_CHECK(action.partitioned);
    sim::PartitionSpec spec;
    spec.splitLayer = static_cast<std::size_t>(std::lround(
        action.splitFraction
        * static_cast<double>(network.layers().size())));
    spec.splitLayer =
        std::min(spec.splitLayer, network.layers().size());
    spec.localProc = action.localProc;
    spec.localPrecision = action.localPrecision;
    spec.remotePlace = action.remotePlace;
    return spec;
}

std::vector<HybridAction>
buildHybridActionSpace(const sim::InferenceSimulator &sim)
{
    std::vector<HybridAction> actions;
    for (const sim::ExecutionTarget &target : buildActionSpace(sim)) {
        HybridAction action;
        action.partitioned = false;
        action.target = target;
        actions.push_back(action);
    }

    // Partition templates: 25/50/75% of layers on the local CPU (and
    // on the DSP when present), remainder in the cloud. The V/F index
    // is materialized at execution time to the CPU's top step.
    for (const double fraction : {0.25, 0.5, 0.75}) {
        HybridAction cpu;
        cpu.partitioned = true;
        cpu.splitFraction = fraction;
        cpu.localProc = platform::ProcKind::MobileCpu;
        cpu.localPrecision = dnn::Precision::FP32;
        cpu.remotePlace = sim::TargetPlace::Cloud;
        actions.push_back(cpu);

        if (sim.localDevice().hasDsp()) {
            HybridAction dsp = cpu;
            dsp.localProc = platform::ProcKind::MobileDsp;
            dsp.localPrecision = dnn::Precision::INT8;
            actions.push_back(dsp);
        }
    }
    return actions;
}

HybridScheduler::HybridScheduler(const sim::InferenceSimulator &sim,
                                 const SchedulerConfig &config,
                                 std::uint64_t seed)
    : sim_(sim), config_(config), actions_(buildHybridActionSpace(sim)),
      agent_(config.encoder.numStates(),
             static_cast<int>(actions_.size()), config.rl, Rng(seed))
{
}

const HybridAction &
HybridScheduler::choose(const sim::InferenceRequest &request,
                        const env::EnvState &env)
{
    AS_CHECK(!awaitingFeedback_);
    AS_CHECK(request.network != nullptr);
    const StateId state =
        config_.encoder.encode(makeStateFeatures(*request.network, env));
    int greedy = -1;
    if (pending_.has_value()) {
        greedy = agent_.update(pending_->state, pending_->action,
                               pending_->reward, state);
        pending_.reset();
    }
    currentState_ = state;
    currentAction_ =
        agent_.selectAction(agent_.table().row(state), greedy);
    currentRequest_ = request;
    awaitingFeedback_ = true;
    return actions_[static_cast<std::size_t>(currentAction_)];
}

sim::Outcome
HybridScheduler::execute(const sim::InferenceRequest &request,
                         const env::EnvState &env, Rng &rng) const
{
    AS_CHECK(awaitingFeedback_);
    const HybridAction &action =
        actions_[static_cast<std::size_t>(currentAction_)];
    if (action.partitioned) {
        const sim::PartitionSpec spec = [&] {
            sim::PartitionSpec s =
                materializePartition(action, *request.network);
            const platform::Processor *proc =
                sim_.localDevice().processor(s.localProc);
            if (proc != nullptr) {
                s.vfIndex = proc->maxVfIndex();
            }
            return s;
        }();
        return sim_.runPartitioned(*request.network, spec, env, rng);
    }
    return sim_.run(*request.network, action.target, env, rng);
}

void
HybridScheduler::feedback(const sim::Outcome &outcome)
{
    AS_CHECK(awaitingFeedback_);
    awaitingFeedback_ = false;
    lastReward_ = computeReward(outcome, currentRequest_, config_.reward);
    pending_ = Pending{currentState_, currentAction_, lastReward_};
}

void
HybridScheduler::finishEpisode()
{
    AS_CHECK(!awaitingFeedback_);
    if (pending_.has_value()) {
        agent_.update(pending_->state, pending_->action, pending_->reward,
                      pending_->state);
        pending_.reset();
    }
}

void
HybridScheduler::setExploration(bool enabled)
{
    agent_.setExploration(enabled);
}

void
HybridScheduler::setLearning(bool enabled)
{
    agent_.setLearning(enabled);
}

} // namespace autoscale::core
