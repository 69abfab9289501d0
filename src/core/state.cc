#include "core/state.h"

#include "net/link.h"
#include "util/logging.h"

namespace autoscale::core {

StateFeatures
makeStateFeatures(const dnn::Network &network, const env::EnvState &env)
{
    StateFeatures features;
    features.convLayers = network.numConv();
    features.fcLayers = network.numFc();
    features.rcLayers = network.numRc();
    features.macsMillions = network.totalMacsMillions();
    features.coCpuUtil = env.coCpuUtil;
    features.coMemUtil = env.coMemUtil;
    features.rssiWlanDbm = env.rssiWlanDbm;
    features.rssiP2pDbm = env.rssiP2pDbm;
    return features;
}

const char *
featureName(Feature feature)
{
    switch (feature) {
      case Feature::Conv: return "S_CONV";
      case Feature::Fc: return "S_FC";
      case Feature::Rc: return "S_RC";
      case Feature::Mac: return "S_MAC";
      case Feature::CoCpu: return "S_Co_CPU";
      case Feature::CoMem: return "S_Co_MEM";
      case Feature::RssiW: return "S_RSSI_W";
      case Feature::RssiP: return "S_RSSI_P";
    }
    panic("featureName: unknown feature");
}

int
featureCardinality(Feature feature)
{
    switch (feature) {
      case Feature::Conv: return 4;  // small/medium/large/larger
      case Feature::Fc: return 2;    // small/large
      case Feature::Rc: return 2;    // small/large
      case Feature::Mac: return 3;   // small/medium/large
      case Feature::CoCpu: return 4; // none/small/medium/large
      case Feature::CoMem: return 4; // none/small/medium/large
      case Feature::RssiW: return 2; // regular/weak
      case Feature::RssiP: return 2; // regular/weak
    }
    panic("featureCardinality: unknown feature");
}

namespace {

int
utilizationBin(double util)
{
    // Table I: none (0%), small (<25%), medium (<75%), large (<=100%).
    if (util < 0.005) {
        return 0;
    }
    if (util < 0.25) {
        return 1;
    }
    if (util < 0.75) {
        return 2;
    }
    return 3;
}

int
rssiBin(double rssiDbm)
{
    // Table I: regular (> -80 dBm), weak (<= -80 dBm).
    return rssiDbm > net::kWeakRssiDbm ? 0 : 1;
}

} // namespace

int
featureBin(Feature feature, const StateFeatures &features)
{
    switch (feature) {
      case Feature::Conv:
        // Table I: small (<30), medium (<50), large (<90), larger (>=90).
        if (features.convLayers < 30) {
            return 0;
        }
        if (features.convLayers < 50) {
            return 1;
        }
        if (features.convLayers < 90) {
            return 2;
        }
        return 3;
      case Feature::Fc:
        // Table I: small (<10), large (>=10).
        return features.fcLayers < 10 ? 0 : 1;
      case Feature::Rc:
        return features.rcLayers < 10 ? 0 : 1;
      case Feature::Mac:
        // Table I: small (<1,000M), medium (<2,000M), large (>=2,000M).
        if (features.macsMillions < 1000.0) {
            return 0;
        }
        if (features.macsMillions < 2000.0) {
            return 1;
        }
        return 2;
      case Feature::CoCpu:
        return utilizationBin(features.coCpuUtil);
      case Feature::CoMem:
        return utilizationBin(features.coMemUtil);
      case Feature::RssiW:
        return rssiBin(features.rssiWlanDbm);
      case Feature::RssiP:
        return rssiBin(features.rssiP2pDbm);
    }
    panic("featureBin: unknown feature");
}

namespace {

int
countStates(const std::array<bool, kNumFeatures> &enabled)
{
    int total = 1;
    for (int i = 0; i < kNumFeatures; ++i) {
        if (enabled[i]) {
            total *= featureCardinality(static_cast<Feature>(i));
        }
    }
    return total;
}

} // namespace

StateEncoder::StateEncoder()
{
    enabled_.fill(true);
    numStates_ = countStates(enabled_);
}

void
StateEncoder::disableFeature(Feature feature)
{
    enabled_[static_cast<int>(feature)] = false;
    numStates_ = countStates(enabled_);
}

bool
StateEncoder::isEnabled(Feature feature) const
{
    return enabled_[static_cast<int>(feature)];
}

StateId
StateEncoder::encode(const StateFeatures &features) const
{
    int id = 0;
    for (int i = 0; i < kNumFeatures; ++i) {
        if (!enabled_[i]) {
            continue;
        }
        const auto feature = static_cast<Feature>(i);
        id = id * featureCardinality(feature) + featureBin(feature, features);
    }
    AS_CHECK(id >= 0 && id < numStates_);
    return id;
}

std::array<int, kNumFeatures>
StateEncoder::bins(const StateFeatures &features) const
{
    std::array<int, kNumFeatures> result{};
    for (int i = 0; i < kNumFeatures; ++i) {
        result[i] = enabled_[i]
            ? featureBin(static_cast<Feature>(i), features) : 0;
    }
    return result;
}

} // namespace autoscale::core
