#include "serve/arrival.h"

#include <cmath>

#include "util/logging.h"
#include "util/period.h"

namespace autoscale::serve {

bool
ArrivalConfig::inBurst(double nowMs) const
{
    if (burstPeriodMs <= 0.0 || burstDurationMs <= 0.0
        || burstMultiplier <= 1.0) {
        return false;
    }
    return periodPhase(nowMs, burstPeriodMs) < burstDurationMs;
}

double
ArrivalConfig::ratePerMs(double nowMs) const
{
    double base = ratePerSec / 1000.0;
    if (diurnalAmplitude > 0.0 && diurnalPeriodMs > 0.0) {
        constexpr double kTau = 6.283185307179586476925286766559;
        base *= 1.0
            + diurnalAmplitude * std::sin(kTau * nowMs / diurnalPeriodMs);
    }
    return inBurst(nowMs) ? base * burstMultiplier : base;
}

ArrivalProcess::ArrivalProcess(const ArrivalConfig &config,
                               std::uint64_t seed)
    : config_(&config), rng_(seed)
{
    // A shape whose rate can reach zero or turn negative would make
    // nextArrivalMs() return an infinite or backwards gap, stopping or
    // reversing the device clock without a word.
    AS_CHECK(config_->ratePerSec > 0.0);
    AS_CHECK(config_->burstPeriodMs >= 0.0);
    AS_CHECK(config_->burstDurationMs >= 0.0);
    AS_CHECK(config_->burstMultiplier > 0.0);
    AS_CHECK(config_->diurnalAmplitude >= 0.0
             && config_->diurnalAmplitude < 1.0);
}

double
ArrivalProcess::nextArrivalMs()
{
    // Inverse-CDF exponential gap at the rate in force right now.
    double u = rng_.uniform();
    if (u < 1e-300) {
        u = 1e-300; // avoid log(0)
    }
    const double rate = config_->ratePerMs(clockMs_);
    clockMs_ += -std::log(u) / rate;
    ++count_;
    return clockMs_;
}

} // namespace autoscale::serve
