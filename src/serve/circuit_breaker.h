/**
 * @file
 * Per-target circuit breakers for the serving loop (DESIGN.md §12).
 *
 * The fault layer's retry loop (sim::runWithFaults) makes each request
 * pay for an outage individually: every decision routed at a dead link
 * burns a full timeout+retry cycle of radio energy before falling back.
 * A breaker amortizes that cost across the outage: after the first
 * request observes exhausted retries, the breaker *opens* and later
 * requests are short-circuited straight to the local fallback at zero
 * radio cost. After a seeded, jittered, exponentially growing cooldown
 * the breaker goes *half-open* and lets one cheap probe (a zero-retry
 * attempt) through; enough consecutive probe successes close it again.
 *
 * Determinism: probe jitter comes from a dedicated RNG seeded at
 * construction, and all time is the serving loop's virtual clock, so a
 * given (policy, seed, fault timeline) always produces the same state
 * transitions.
 */

#ifndef AUTOSCALE_SERVE_CIRCUIT_BREAKER_H_
#define AUTOSCALE_SERVE_CIRCUIT_BREAKER_H_

#include <cstdint>

#include "util/rng.h"

namespace autoscale::serve {

/** Breaker state machine (closed = healthy, open = short-circuit). */
enum class BreakerState {
    Closed,   ///< Attempts flow normally.
    Open,     ///< Attempts short-circuit to the local fallback.
    HalfOpen, ///< One probe in flight decides reopen-vs-close.
};

/** Human-readable state name ("closed"/"open"/"half-open"). */
const char *breakerStateName(BreakerState state);

/** Breaker tuning. */
struct BreakerPolicy {
    /** Consecutive failures that trip Closed -> Open. */
    int failureThreshold = 1;
    /** First open-state cooldown, ms. */
    double openBaseMs = 500.0;
    /** Cooldown cap, ms. */
    double openMaxMs = 8000.0;
    /** Cooldown growth per consecutive reopen. */
    double openBackoffMultiplier = 2.0;
    /** Uniform +/- fraction of jitter on each cooldown. */
    double probeJitterFrac = 0.2;
    /** Consecutive probe successes that close a half-open breaker. */
    int halfOpenSuccesses = 2;
};

/** Lifetime statistics of one breaker. */
struct BreakerStats {
    /** Closed/HalfOpen -> Open transitions. */
    std::int64_t opens = 0;
    /** Requests short-circuited while open. */
    std::int64_t shortCircuits = 0;
    /** Half-open probes attempted. */
    std::int64_t probes = 0;
    /** Total virtual time spent open or half-open, ms. */
    double totalOpenMs = 0.0;
};

/**
 * One circuit breaker guarding one remote place. It reads @p policy
 * through a pointer rather than copying it: every fleet device's
 * breakers read their plan's one BreakerPolicy (DESIGN.md §18), which
 * must outlive the breaker.
 */
class CircuitBreaker {
  public:
    CircuitBreaker(const BreakerPolicy &policy, std::uint64_t seed);
    CircuitBreaker(BreakerPolicy &&, std::uint64_t) = delete;

    /**
     * Gate a request at virtual time @p nowMs. Returns false when the
     * caller must short-circuit to the local fallback. An open breaker
     * whose cooldown has elapsed transitions to half-open here and
     * admits the request as a probe.
     */
    bool allowAttempt(double nowMs);

    /** The gated attempt reached the remote end and came back. */
    void recordSuccess(double nowMs);

    /** The gated attempt exhausted its retries (FaultOutcome.fellBack). */
    void recordFailure(double nowMs);

    BreakerState state() const { return state_; }

    /** Whether the next admitted attempt is a half-open probe. */
    bool probing() const { return state_ == BreakerState::HalfOpen; }

    const BreakerStats &stats() const { return stats_; }

    /**
     * Fold the tail open/half-open interval into totalOpenMs at end of
     * run. Idempotent per final @p nowMs.
     */
    void finalize(double nowMs);

  private:
    void open(double nowMs);
    void close(double nowMs);

    const BreakerPolicy *policy_;
    Rng rng_;
    BreakerState state_ = BreakerState::Closed;
    int consecutiveFailures_ = 0;
    int consecutiveProbeSuccesses_ = 0;
    /** Consecutive reopens without an intervening close (backoff level). */
    int reopenCount_ = 0;
    /** When the current open cooldown ends (valid while Open). */
    double probeAtMs_ = 0.0;
    /** When the breaker last left Closed (valid while Open/HalfOpen). */
    double openedAtMs_ = 0.0;
    BreakerStats stats_;
};

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_CIRCUIT_BREAKER_H_
