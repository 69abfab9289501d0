#include "core/agent.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "util/logging.h"
#include "util/rng_jump.h"

namespace autoscale::core {

ConvergenceTracker::ConvergenceTracker(int window, double tolerance)
    : window_(window), tolerance_(tolerance)
{
    AS_CHECK(window_ >= 2);
    AS_CHECK(tolerance_ > 0.0);
}

void
ConvergenceTracker::add(double reward)
{
    ++count_;
    recent_.push_back(reward);
    sum_ += reward;
    sumSq_ += reward * reward;
    const std::size_t half = static_cast<std::size_t>(window_) / 2;
    if (static_cast<int>(recent_.size()) == window_) {
        // Window just filled: one O(window) pass seeds the split-half
        // sum; every later add() maintains it incrementally.
        firstHalfSum_ = 0.0;
        for (std::size_t i = 0; i < half; ++i) {
            firstHalfSum_ += recent_[i];
        }
    } else if (static_cast<int>(recent_.size()) > window_) {
        const double dropped = recent_.front();
        recent_.pop_front();
        sum_ -= dropped;
        sumSq_ -= dropped * dropped;
        // The window slid one step: the old front leaves the first
        // half and the element now ending it (index half-1) enters.
        firstHalfSum_ += recent_[half - 1] - dropped;
    }
}

double
ConvergenceTracker::windowMean() const
{
    if (recent_.empty()) {
        return 0.0;
    }
    return sum_ / static_cast<double>(recent_.size());
}

bool
ConvergenceTracker::converged() const
{
    if (static_cast<int>(recent_.size()) < window_) {
        return false;
    }
    // Converged when the reward has stopped drifting (the two window
    // halves have close means) and is not wildly dispersed. A pure
    // max-min spread criterion never fires for small-magnitude rewards
    // whose measurement noise exceeds the tolerance.
    const std::size_t half = recent_.size() / 2;
    const double first = firstHalfSum_ / static_cast<double>(half);
    const double second = (sum_ - firstHalfSum_)
        / static_cast<double>(recent_.size() - half);

    const double mean = windowMean();
    // E[r^2] - mean^2; clamped because cancellation can dip a tiny
    // constant-reward variance below zero.
    const double var = std::max(
        sumSq_ / static_cast<double>(recent_.size()) - mean * mean, 0.0);
    const double stddev = std::sqrt(var);

    const double scale = std::max(std::fabs(mean), 10.0);
    return std::fabs(second - first) <= tolerance_ * scale
        && stddev <= 0.5 * scale;
}

namespace {

void
checkConfig(const QLearningConfig &config)
{
    AS_CHECK(config.epsilon >= 0.0 && config.epsilon <= 1.0);
    AS_CHECK(config.learningRate > 0.0 && config.learningRate <= 1.0);
    AS_CHECK(config.discount >= 0.0 && config.discount < 1.0);
    AS_CHECK(config.visitDecay >= 0.0);
    AS_CHECK(config.minLearningRate > 0.0
             && config.minLearningRate <= config.learningRate);
}

/**
 * The jump past one random table initialization of @p cells draws.
 * Building it costs a few milliseconds, so it is built once per table
 * size and kept for the process (a fleet warm-starts every peer with
 * the same one).
 */
const util::RngJump &
initializationJump(std::uint64_t cells)
{
    static std::mutex mutex;
    static std::map<std::uint64_t, std::unique_ptr<util::RngJump>> jumps;
    const std::lock_guard<std::mutex> lock(mutex);
    std::unique_ptr<util::RngJump> &jump = jumps[cells];
    if (!jump) {
        jump = std::make_unique<util::RngJump>(cells);
    }
    return *jump;
}

} // namespace

QLearningAgent::QLearningAgent(int numStates, int numActions,
                               const QLearningConfig &config, Rng rng)
    : config_(config), table_(numStates, numActions), rng_(rng),
      visits_(numActions)
{
    checkConfig(config_);
    // Algorithm 1: "Initialize Q(S,A) as random values". Optimistic
    // positive initialization also encourages trying untried actions.
    table_.randomize(rng_, config_.initLow, config_.initHigh);
}

QLearningAgent::QLearningAgent(const QTable &initial,
                               const QLearningConfig &config, Rng rng)
    : config_(config), table_(initial.share()), rng_(rng),
      visits_(initial.numActions())
{
    checkConfig(config_);
    // randomize() takes exactly one draw per cell.
    initializationJump(static_cast<std::uint64_t>(table_.numStates())
                       * static_cast<std::uint64_t>(table_.numActions()))
        .apply(rng_);
}

int
QLearningAgent::selectAction(int state)
{
    if (explore_ && rng_.uniform() < config_.epsilon) {
        lastExplored_ = true;
        return static_cast<int>(
            rng_.uniformInt(static_cast<std::uint64_t>(
                table_.numActions())));
    }
    lastExplored_ = false;
    return table_.bestAction(state);
}

int
QLearningAgent::visitCount(int state, int action) const
{
    AS_CHECK(state >= 0 && state < table_.numStates());
    AS_CHECK(action >= 0 && action < table_.numActions());
    const std::uint16_t *row = visits_.find(state);
    return row != nullptr ? row[action] : 0;
}

double
QLearningAgent::effectiveLearningRate(int state, int action) const
{
    return learningRateAfter(visitCount(state, action));
}

double
QLearningAgent::learningRateAfter(int visits) const
{
    const double decayed = config_.learningRate
        / (1.0 + config_.visitDecay * static_cast<double>(visits));
    return std::max(decayed, config_.minLearningRate);
}

void
QLearningAgent::update(int state, int action, double reward, int nextState)
{
    convergence_.add(reward);
    if (!learn_) {
        return;
    }
    AS_CHECK(state >= 0 && state < table_.numStates());
    AS_CHECK(action >= 0 && action < table_.numActions());
    std::uint16_t &visits = visits_.insert(state, nullptr)[action];
    const double rate = learningRateAfter(visits);
    if (visits < 0xffff) {
        ++visits;
    }
    const double target = reward + config_.discount
        * table_.maxValue(nextState);
    float &q = table_.at(state, action);
    const double old_q = q;
    lastTdError_ = target - old_q;
    lastUpdateDelta_ = rate * lastTdError_;
    q = static_cast<float>(old_q + lastUpdateDelta_);
}

} // namespace autoscale::core
