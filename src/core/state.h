/**
 * @file
 * The AutoScale RL state (Table I): four NN-related features (CONV, FC,
 * RC layer counts and MAC operations) and four runtime-variance features
 * (co-runner CPU/memory utilization and the RSSI of the WLAN and
 * peer-to-peer links), each discretized into the paper's bins for the
 * Q-table lookup. The full space has 4*2*2*3*4*4*2*2 = 3,072 states.
 *
 * The encoder supports disabling individual features, which implements
 * the Section IV-A ablation ("removing any one state degrades accuracy
 * by 32.1% on average").
 */

#ifndef AUTOSCALE_CORE_STATE_H_
#define AUTOSCALE_CORE_STATE_H_

#include <array>
#include <cstdint>
#include <string>

#include "dnn/network.h"
#include "env/env_state.h"

namespace autoscale::core {

/** Raw (continuous) state features observed before discretization. */
struct StateFeatures {
    int convLayers = 0;
    int fcLayers = 0;
    int rcLayers = 0;
    double macsMillions = 0.0;
    double coCpuUtil = 0.0;
    double coMemUtil = 0.0;
    double rssiWlanDbm = -55.0;
    double rssiP2pDbm = -55.0;
};

/** Observe the Table I features for an inference about to start. */
StateFeatures makeStateFeatures(const dnn::Network &network,
                                const env::EnvState &env);

/** Feature identifiers in Table I order. */
enum class Feature : int {
    Conv = 0,
    Fc,
    Rc,
    Mac,
    CoCpu,
    CoMem,
    RssiW,
    RssiP,
};

/** Number of Table I features. */
constexpr int kNumFeatures = 8;

/** Paper name of a feature, e.g. "S_CONV". */
const char *featureName(Feature feature);

/** Number of discrete bins of a feature (Table I last column). */
int featureCardinality(Feature feature);

/** Table I bin index of @p features for @p feature. */
int featureBin(Feature feature, const StateFeatures &features);

/** Discrete state identifier. */
using StateId = int;

/**
 * Maps StateFeatures to a dense StateId using the Table I bins.
 * Individual features can be disabled (collapsed to one bin) to measure
 * their importance.
 */
class StateEncoder {
  public:
    /** Encoder with every Table I feature enabled. */
    StateEncoder();

    /** Collapse @p feature to a single bin (ablation). */
    void disableFeature(Feature feature);

    /** Whether @p feature participates in the encoding. */
    bool isEnabled(Feature feature) const;

    /** Total number of discrete states (3,072 with all features). */
    int numStates() const { return numStates_; }

    /** Dense state id in [0, numStates()). */
    StateId encode(const StateFeatures &features) const;

    /** Per-feature bins (disabled features report bin 0). */
    std::array<int, kNumFeatures> bins(const StateFeatures &features) const;

  private:
    std::array<bool, kNumFeatures> enabled_;
    /**
     * Product of the enabled features' cardinalities, kept current by
     * the constructor and disableFeature.
     */
    int numStates_ = 0;
};

} // namespace autoscale::core

#endif // AUTOSCALE_CORE_STATE_H_
