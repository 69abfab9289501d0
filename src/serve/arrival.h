/**
 * @file
 * Stochastic request arrivals for the online serving loop: a Poisson
 * process (exponential inter-arrival gaps) whose rate is multiplied
 * during periodic burst episodes. This is the open-loop traffic model
 * the closed-loop batch experiments lack — requests arrive whether or
 * not the server is ready, which is what makes admission control and
 * load shedding meaningful (DESIGN.md §12).
 *
 * Fully deterministic: the process owns a dedicated RNG seeded at
 * construction, and burst windows are fixed functions of virtual time,
 * so a given (config, seed) always produces the same arrival timeline.
 */

#ifndef AUTOSCALE_SERVE_ARRIVAL_H_
#define AUTOSCALE_SERVE_ARRIVAL_H_

#include <cstdint>

#include "util/rng.h"

namespace autoscale::serve {

/** Poisson-plus-bursts arrival configuration. */
struct ArrivalConfig {
    /** Base arrival rate, requests per second. Must be positive. */
    double ratePerSec = 20.0;
    /** Burst episode period, ms (0 disables bursts; never negative). */
    double burstPeriodMs = 2000.0;
    /** Burst episode length, ms (from each period start). */
    double burstDurationMs = 400.0;
    /** Rate multiplier inside a burst episode (>= 1). */
    double burstMultiplier = 4.0;
    /**
     * Diurnal rate modulation (scenario files' arrival.diurnal_*): the
     * base rate is scaled by 1 + amplitude * sin(2*pi * t / period)
     * before burst multipliers apply. Amplitude 0 (the default)
     * bypasses the modulation entirely, so non-diurnal configs keep
     * their exact historical arrival timelines. Amplitude must stay
     * < 1 so the rate never reaches zero.
     */
    double diurnalPeriodMs = 0.0;
    double diurnalAmplitude = 0.0;

    /** Whether @p nowMs falls inside a burst episode. */
    bool inBurst(double nowMs) const;

    /** Effective arrival rate (per ms) at @p nowMs. */
    double ratePerMs(double nowMs) const;
};

/**
 * Deterministic Poisson/burst arrival-time generator. It reads
 * @p config through a pointer rather than copying it: every fleet
 * device's process reads its plan's one ArrivalConfig (DESIGN.md §18),
 * which must outlive the process. The constructor AS_CHECKs that the
 * rate stays positive at every time: ratePerSec > 0, burst period and
 * length >= 0, burstMultiplier > 0 and diurnalAmplitude in [0, 1).
 */
class ArrivalProcess {
  public:
    ArrivalProcess(const ArrivalConfig &config, std::uint64_t seed);
    ArrivalProcess(ArrivalConfig &&, std::uint64_t) = delete;

    /**
     * Virtual time of the next arrival, ms. Each call consumes one
     * exponential gap at the rate in force at the previous arrival
     * time (thinning across a burst edge is deliberately not modelled;
     * the ~one-gap error is irrelevant at these rates).
     */
    double nextArrivalMs();

    /** Arrivals generated so far. */
    std::int64_t count() const { return count_; }

    const ArrivalConfig &config() const { return *config_; }

  private:
    const ArrivalConfig *config_;
    Rng rng_;
    double clockMs_ = 0.0;
    std::int64_t count_ = 0;
};

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_ARRIVAL_H_
