/**
 * @file
 * RSSI processes for the evaluation environments: constant (static
 * scenarios S1-S5) and Gaussian (dynamic scenario D3 — the paper models
 * signal strength variance with a Gaussian distribution, Section V-B).
 */

#ifndef AUTOSCALE_NET_RSSI_PROCESS_H_
#define AUTOSCALE_NET_RSSI_PROCESS_H_

#include <algorithm>

#include "util/logging.h"
#include "util/rng.h"

namespace autoscale::net {

/**
 * Generates one RSSI sample per inference. A plain value, not a class
 * hierarchy: a scenario reads its links' processes from a constexpr
 * table instead of owning one heap object per link.
 */
class RssiProcess {
  public:
    /** Fixed RSSI (static environments); sample() draws nothing. */
    static constexpr RssiProcess
    constant(double rssiDbm)
    {
        return RssiProcess(false, rssiDbm, 0.0, rssiDbm, rssiDbm);
    }

    /**
     * Gaussian RSSI, clamped to a physical range (dynamic environment
     * D3); each sample() draws one normal.
     *
     * @param meanDbm Mean RSSI.
     * @param sigmaDb Standard deviation.
     * @param minDbm Lower clamp.
     * @param maxDbm Upper clamp.
     */
    static constexpr RssiProcess
    gaussian(double meanDbm, double sigmaDb, double minDbm = -95.0,
             double maxDbm = -40.0)
    {
        AS_CHECK(sigmaDb >= 0.0);
        AS_CHECK(minDbm < maxDbm);
        return RssiProcess(true, meanDbm, sigmaDb, minDbm, maxDbm);
    }

    /** Next RSSI sample in dBm. */
    double
    sample(Rng &rng) const
    {
        if (!gaussian_) {
            return meanDbm_;
        }
        return std::clamp(rng.normal(meanDbm_, sigmaDb_), minDbm_,
                          maxDbm_);
    }

  private:
    constexpr RssiProcess(bool gaussian, double meanDbm, double sigmaDb,
                          double minDbm, double maxDbm)
        : gaussian_(gaussian), meanDbm_(meanDbm), sigmaDb_(sigmaDb),
          minDbm_(minDbm), maxDbm_(maxDbm)
    {
    }

    bool gaussian_;
    double meanDbm_;
    double sigmaDb_;
    double minDbm_;
    double maxDbm_;
};

} // namespace autoscale::net

#endif // AUTOSCALE_NET_RSSI_PROCESS_H_
