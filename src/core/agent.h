/**
 * @file
 * The Q-learning agent of Algorithm 1: epsilon-greedy action selection
 * over the Q-table and the standard tabular update
 *
 *   Q(S,A) <- Q(S,A) + gamma * [R + mu * max_A' Q(S',A') - Q(S,A)]
 *
 * with the paper's hyperparameters (epsilon = 0.1, learning rate
 * gamma = 0.9, discount mu = 0.1, chosen by the Section V-C sensitivity
 * sweep). Reward convergence is tracked with a sliding window, which is
 * how Fig. 14 detects the 40-50-run convergence point.
 */

#ifndef AUTOSCALE_CORE_AGENT_H_
#define AUTOSCALE_CORE_AGENT_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/qtable.h"
#include "core/sparse_rows.h"
#include "util/rng.h"

namespace autoscale::core {

/** Algorithm 1 hyperparameters. */
struct QLearningConfig {
    double epsilon = 0.1;      ///< Exploration probability.
    double learningRate = 0.9; ///< gamma in Algorithm 1.
    double discount = 0.1;     ///< mu in Algorithm 1.
    /**
     * Q-table random-init range (Algorithm 1 initializes Q with random
     * values). The range sits just below the rewards of good actions at
     * the millijoule energy scale, so training converges in the
     * paper's 40-50 runs instead of first visiting every action once.
     */
    double initLow = -15.0;
    double initHigh = 0.0;
    /**
     * Per-(state, action) learning-rate decay. The first visit uses the
     * full learning rate (the paper's 0.9, so Algorithm 1's update is
     * reproduced exactly); subsequent visits decay as
     * lr / (1 + visitDecay * visits), floored at minLearningRate, which
     * makes Q converge to the within-bin mean reward instead of the
     * most recent sample. Without this, a single boundary sample inside
     * a coarse Table I bin (e.g. an RSSI of -79 dBm in the "regular"
     * bin) can permanently demote the bin's best action. Set
     * visitDecay = 0 for the paper's fixed learning rate.
     */
    double visitDecay = 0.15;
    double minLearningRate = 0.05;
};

/** Tracks reward stability to detect training convergence. */
class ConvergenceTracker {
  public:
    /**
     * @param window Sliding-window length in updates.
     * @param tolerance Maximum relative spread of the windowed mean
     *        reward still considered converged.
     */
    explicit ConvergenceTracker(int window = 10, double tolerance = 0.08);

    /** Record one reward. */
    void add(double reward);

    /** Whether the windowed reward has stabilized. */
    bool converged() const;

    /** Updates seen so far. */
    int count() const { return count_; }

    /** Mean of the current window (0 if empty). */
    double windowMean() const;

  private:
    int window_;
    double tolerance_;
    int count_ = 0;
    std::deque<double> recent_;
    /**
     * Running aggregates kept in lockstep with recent_ so add() and
     * converged() are O(1) instead of re-scanning the window: the
     * window sum, sum of squares, and the sum of the first window half
     * (updated incrementally as the window slides; initialized when it
     * first fills). tests/test_agent pins verdict parity against the
     * naive rescan on random reward streams.
     */
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double firstHalfSum_ = 0.0;
};

/** Tabular Q-learning agent with epsilon-greedy exploration. */
class QLearningAgent {
  public:
    /**
     * @param numStates State-space size.
     * @param numActions Action-space size.
     * @param config Hyperparameters.
     * @param rng Exploration/initialization generator (owned copy).
     */
    QLearningAgent(int numStates, int numActions,
                   const QLearningConfig &config, Rng rng);

    /**
     * Warm-started agent: its table shares @p initial's values
     * (QTable::share) instead of drawing random ones, and @p rng is
     * advanced past the numStates x numActions draws the random
     * initialization would have taken, so every later exploration draw
     * matches an agent that randomized and then copied @p initial.
     */
    QLearningAgent(const QTable &initial, const QLearningConfig &config,
                   Rng rng);

    /** Epsilon-greedy action for @p state (Algorithm 1 selection). */
    int selectAction(int state);

    /**
     * Whether the most recent selectAction() chose by exploration
     * (random draw) rather than the greedy argmax.
     */
    bool lastActionExplored() const { return lastExplored_; }

    /** Greedy action (exploitation only). */
    int bestAction(int state) const { return table_.bestAction(state); }

    /** Algorithm 1 update for transition (S, A, R, S'). */
    void update(int state, int action, double reward, int nextState);

    /** Enable/disable exploration (testing phase runs greedy). */
    void setExploration(bool enabled) { explore_ = enabled; }

    /** Enable/disable learning updates. */
    void setLearning(bool enabled) { learn_ = enabled; }

    const QTable &table() const { return table_; }
    QTable &mutableTable() { return table_; }
    const QLearningConfig &config() const { return config_; }
    const ConvergenceTracker &convergence() const { return convergence_; }

    /** Temporal-difference error of the most recent update. */
    double lastTdError() const { return lastTdError_; }

    /**
     * Q-value delta actually applied by the most recent update, i.e.
     * effectiveLearningRate * lastTdError (0 while learning is off).
     * This is the per-step table movement a decision trace records.
     */
    double lastUpdateDelta() const { return lastUpdateDelta_; }

    /** Number of learning updates applied to (state, action). */
    int visitCount(int state, int action) const;

    /** States with at least one update, ascending. */
    const std::vector<int> &visitedStates() const
    {
        return visits_.states();
    }

    /** The numActions visit counts of @p state, or null when no
     * update has touched it. */
    const std::uint16_t *
    visitRow(int state) const
    {
        return visits_.find(state);
    }

    /** Effective learning rate the next update of (state, action) uses. */
    double effectiveLearningRate(int state, int action) const;

  private:
    /** Learning rate of an update to a cell with @p visits so far. */
    double learningRateAfter(int visits) const;

    QLearningConfig config_;
    QTable table_;
    Rng rng_;
    bool explore_ = true;
    bool learn_ = true;
    bool lastExplored_ = false;
    double lastTdError_ = 0.0;
    double lastUpdateDelta_ = 0.0;
    ConvergenceTracker convergence_;
    /** Saturating per-(state, action) update counts, one row per
     * touched state. */
    SparseRows<std::uint16_t> visits_;
};

} // namespace autoscale::core

#endif // AUTOSCALE_CORE_AGENT_H_
