#include "core/scheduler.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "core/transfer.h"
#include "util/logging.h"

namespace autoscale::core {

AutoScaleScheduler::AutoScaleScheduler(const sim::InferenceSimulator &sim,
                                       const SchedulerConfig &config,
                                       std::uint64_t seed)
    : sim_(sim), config_(config), actions_(buildActionSpace(sim)),
      agent_(config.encoder.numStates(),
             static_cast<int>(actions_.size()), config.rl, Rng(seed))
{
}

AutoScaleScheduler::AutoScaleScheduler(const sim::InferenceSimulator &sim,
                                       const SchedulerConfig &config,
                                       std::uint64_t seed,
                                       const AutoScaleScheduler &warmStart)
    : sim_(sim), config_(config), actions_(buildActionSpace(sim)),
      agent_(identityTransfer(warmStart)
                 ? QLearningAgent(warmStart.agent_.table(), config.rl,
                                  Rng(seed))
                 : QLearningAgent(config.encoder.numStates(),
                                  static_cast<int>(actions_.size()),
                                  config.rl, Rng(seed)))
{
    if (!identityTransfer(warmStart)) {
        transferFrom(warmStart);
    }
}

const sim::ExecutionTarget &
AutoScaleScheduler::choose(const sim::InferenceRequest &request,
                           const env::EnvState &env)
{
    AS_CHECK(!awaitingFeedback_);
    AS_CHECK(request.network != nullptr);

    const StateFeatures features = makeStateFeatures(*request.network, env);
    const StateId state = config_.encoder.encode(features);

    // The state observed now is S' for the previous transition. The
    // update's bootstrap max already scanned this state's row; its
    // first-max index is the greedy pick unless the update wrote to
    // this same row, in which case update() returns -1.
    int greedy = -1;
    if (pending_.has_value()) {
        greedy = agent_.update(pending_->state, pending_->action,
                               pending_->reward, state);
        pending_.reset();
    }

    // Read after the update: its write may have moved private rows.
    const float *values = agent_.table().row(state);
    currentState_ = state;
    currentAction_ = agent_.selectAction(values, greedy);
    currentRequest_ = request;
    awaitingFeedback_ = true;
    lastDecision_ = DecisionInfo{
        currentState_, currentAction_,
        static_cast<double>(values[currentAction_]),
        agent_.lastActionExplored()};
    return actions_[static_cast<std::size_t>(currentAction_)];
}

void
AutoScaleScheduler::feedback(const sim::Outcome &outcome)
{
    AS_CHECK(awaitingFeedback_);
    awaitingFeedback_ = false;
    lastReward_ = computeReward(outcome, currentRequest_, config_.reward);
    pending_ = Pending{currentState_, currentAction_, lastReward_,
                       currentRequest_};
}

void
AutoScaleScheduler::finishEpisode()
{
    AS_CHECK(!awaitingFeedback_);
    if (pending_.has_value()) {
        // No S' exists; treat the transition as terminal by using the
        // same state (the discount mu = 0.1 makes the difference
        // negligible).
        agent_.update(pending_->state, pending_->action, pending_->reward,
                      pending_->state);
        pending_.reset();
    }
}

void
AutoScaleScheduler::discardPending()
{
    AS_CHECK(!awaitingFeedback_);
    pending_.reset();
}

void
AutoScaleScheduler::setExploration(bool enabled)
{
    agent_.setExploration(enabled);
}

void
AutoScaleScheduler::setLearning(bool enabled)
{
    agent_.setLearning(enabled);
}

bool
AutoScaleScheduler::identityTransfer(const AutoScaleScheduler &other) const
{
    // buildActionSpace is a pure function of the simulator, and
    // matchActions maps each action of an identical list to itself (the
    // only zero V/F gap within its place/processor/precision group).
    return &sim_ == &other.sim_
        && config_.encoder.numStates() == other.config_.encoder.numStates();
}

void
AutoScaleScheduler::transferFrom(const AutoScaleScheduler &other)
{
    if (identityTransfer(other)) {
        agent_.mutableTable() = other.agent_.table().share();
        return;
    }
    transferQTable(other.agent_.table(), other.actions_, other.sim_,
                   agent_.mutableTable(), actions_, sim_);
}

std::string
AutoScaleScheduler::actionFingerprint() const
{
    // A stable digest of the action enumeration: label list hashed with
    // FNV-1a. Two schedulers with the same fingerprint index their
    // Q-tables identically.
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const auto &action : actions_) {
        for (const char c : action.label()) {
            hash ^= static_cast<std::uint8_t>(c);
            hash *= 0x100000001b3ULL;
        }
        hash ^= static_cast<std::uint8_t>('|');
        hash *= 0x100000001b3ULL;
    }
    std::ostringstream oss;
    oss << std::hex << hash;
    return oss.str();
}

void
AutoScaleScheduler::saveQTable(std::ostream &os) const
{
    os << "autoscale-qtable " << actionFingerprint() << '\n';
    agent_.table().save(os);
}

void
AutoScaleScheduler::loadQTable(std::istream &is)
{
    std::string magic;
    std::string fingerprint;
    if (!(is >> magic >> fingerprint) || magic != "autoscale-qtable") {
        fatal("loadQTable: not an AutoScale Q-table stream");
    }
    if (fingerprint != actionFingerprint()) {
        fatal("loadQTable: action-space fingerprint mismatch (table was "
              "trained for a different device configuration)");
    }
    QTable loaded = QTable::load(is);
    if (loaded.numStates() != agent_.table().numStates()
        || loaded.numActions() != agent_.table().numActions()) {
        fatal("loadQTable: dimension mismatch");
    }
    agent_.mutableTable() = std::move(loaded);
}

} // namespace autoscale::core
