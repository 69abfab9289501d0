/**
 * @file
 * The phase of a time inside a repeating window: std::fmod(x, p),
 * computed with one fused multiply-add instead of glibc's iterative
 * remainder. The serve loop asks for it once per arrival (the burst
 * window) and the fleet barrier once per window kind per epoch
 * (DESIGN.md §14, "Bit-identical kernels").
 */

#ifndef AUTOSCALE_UTIL_PERIOD_H_
#define AUTOSCALE_UTIL_PERIOD_H_

#include <cmath>
#include <cstdint>

namespace autoscale {

/**
 * std::fmod(@p x, @p period), bit for bit, for finite @p x >= 0 and
 * finite @p period > 0.
 *
 * q = trunc(x / period) is the true quotient's integer part n or, when
 * the division rounds up onto the next integer, n + 1. fmod's result
 * x - n * period is always representable, so the single rounding of
 * fma(-n, period, x) returns exactly those bits; for q = n + 1 the fma
 * is negative, which is how the one-step correction finds it. Past
 * 2^52 the quotient no longer resolves to an integer, so that range
 * keeps std::fmod.
 */
inline double
periodPhase(double x, double period)
{
    const double ratio = x / period;
    if (!(ratio < 0x1p52)) {
        return std::fmod(x, period);
    }
    // Exact truncation: 0 <= ratio < 2^52 fits an int64.
    double q = static_cast<double>(static_cast<std::int64_t>(ratio));
    double r = std::fma(-q, period, x);
    if (r < 0.0) {
        q -= 1.0;
        r = std::fma(-q, period, x);
    } else if (r >= period) {
        q += 1.0;
        r = std::fma(-q, period, x);
    }
    return r;
}

} // namespace autoscale

#endif // AUTOSCALE_UTIL_PERIOD_H_
