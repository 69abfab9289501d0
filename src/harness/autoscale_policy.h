/**
 * @file
 * Adapter exposing the AutoScaleScheduler through the common
 * SchedulingPolicy interface, so AutoScale runs under the exact same
 * evaluation loops as the baselines and prior work.
 */

#ifndef AUTOSCALE_HARNESS_AUTOSCALE_POLICY_H_
#define AUTOSCALE_HARNESS_AUTOSCALE_POLICY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "baselines/policy.h"
#include "core/scheduler.h"

namespace autoscale::harness {

/** AutoScale as a SchedulingPolicy. */
class AutoScalePolicy : public baselines::SchedulingPolicy {
  public:
    /** A non-null @p warmStart warm-starts the learner from that
     * scheduler's table (see core::AutoScaleScheduler). */
    AutoScalePolicy(const sim::InferenceSimulator &sim,
                    const core::SchedulerConfig &config, std::uint64_t seed,
                    const core::AutoScaleScheduler *warmStart = nullptr);

    const std::string &name() const override { return name_; }

    baselines::Decision decide(const sim::InferenceRequest &request,
                               const env::EnvState &env, Rng &rng) override;

    void feedback(const sim::Outcome &outcome) override;

    void finishEpisode() override;

    void
    discardPending() override
    {
        scheduler_.discardPending();
    }

    void
    setExploration(bool enabled) override
    {
        scheduler_.setExploration(enabled);
    }

    void
    setLearning(bool enabled) override
    {
        scheduler_.setLearning(enabled);
    }

    /**
     * Expose the learner's view of the most recent decision: encoded
     * state, chosen action, its Q-value, exploration flag, the reward
     * folded back, and the applied Q-update delta (which lags one
     * decision; see core::AutoScaleScheduler::lastQUpdateDelta).
     */
    void describeLastDecision(obs::DecisionEvent &event) const override;

    core::AutoScaleScheduler &scheduler() { return scheduler_; }
    const core::AutoScaleScheduler &scheduler() const { return scheduler_; }

  private:
    std::string name_;
    core::AutoScaleScheduler scheduler_;
};

/**
 * Factory with the paper's default configuration; a non-null
 * @p warmStart warm-starts the learner from that scheduler's table.
 */
std::unique_ptr<AutoScalePolicy> makeAutoScalePolicy(
    const sim::InferenceSimulator &sim, std::uint64_t seed,
    const core::SchedulerConfig &config = core::SchedulerConfig{},
    const core::AutoScaleScheduler *warmStart = nullptr);

} // namespace autoscale::harness

#endif // AUTOSCALE_HARNESS_AUTOSCALE_POLICY_H_
