#include "serve/circuit_breaker.h"

#include <algorithm>

#include "util/logging.h"

namespace autoscale::serve {

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
    case BreakerState::Closed:
        return "closed";
    case BreakerState::Open:
        return "open";
    case BreakerState::HalfOpen:
        return "half-open";
    }
    panic("unreachable breaker state");
}

CircuitBreaker::CircuitBreaker(const BreakerPolicy &policy,
                               std::uint64_t seed)
    : policy_(&policy), rng_(seed)
{
    AS_CHECK(policy_->failureThreshold > 0);
    AS_CHECK(policy_->openBaseMs > 0.0);
    AS_CHECK(policy_->openMaxMs >= policy_->openBaseMs);
    AS_CHECK(policy_->openBackoffMultiplier >= 1.0);
    AS_CHECK(policy_->probeJitterFrac >= 0.0
             && policy_->probeJitterFrac < 1.0);
    AS_CHECK(policy_->halfOpenSuccesses > 0);
}

bool
CircuitBreaker::allowAttempt(double nowMs)
{
    switch (state_) {
    case BreakerState::Closed:
        return true;
    case BreakerState::Open:
        if (nowMs < probeAtMs_) {
            ++stats_.shortCircuits;
            return false;
        }
        state_ = BreakerState::HalfOpen;
        consecutiveProbeSuccesses_ = 0;
        ++stats_.probes;
        return true;
    case BreakerState::HalfOpen:
        // One probe at a time: while the serving loop is strictly
        // sequential this only gates concurrent arrivals that queued up
        // behind the probe's service time.
        ++stats_.probes;
        return true;
    }
    panic("unreachable breaker state");
}

void
CircuitBreaker::recordSuccess(double nowMs)
{
    switch (state_) {
    case BreakerState::Closed:
        consecutiveFailures_ = 0;
        return;
    case BreakerState::Open:
        // A success can't be reported while open (nothing was admitted);
        // treat it as a late probe result and ignore.
        return;
    case BreakerState::HalfOpen:
        if (++consecutiveProbeSuccesses_ >= policy_->halfOpenSuccesses) {
            close(nowMs);
        }
        return;
    }
}

void
CircuitBreaker::recordFailure(double nowMs)
{
    switch (state_) {
    case BreakerState::Closed:
        if (++consecutiveFailures_ >= policy_->failureThreshold) {
            open(nowMs);
        }
        return;
    case BreakerState::Open:
        return;
    case BreakerState::HalfOpen:
        // Failed probe: reopen with a longer cooldown.
        open(nowMs);
        return;
    }
}

void
CircuitBreaker::open(double nowMs)
{
    if (state_ == BreakerState::Closed) {
        openedAtMs_ = nowMs;
        reopenCount_ = 0;
    } else {
        ++reopenCount_;
    }
    state_ = BreakerState::Open;
    ++stats_.opens;
    consecutiveFailures_ = 0;
    consecutiveProbeSuccesses_ = 0;

    double cooldown = policy_->openBaseMs;
    for (int i = 0; i < reopenCount_; ++i) {
        cooldown = std::min(cooldown * policy_->openBackoffMultiplier,
                            policy_->openMaxMs);
    }
    const double jitter = policy_->probeJitterFrac > 0.0
        ? rng_.uniform(-policy_->probeJitterFrac, policy_->probeJitterFrac)
        : 0.0;
    probeAtMs_ = nowMs + cooldown * (1.0 + jitter);
}

void
CircuitBreaker::close(double nowMs)
{
    stats_.totalOpenMs += std::max(0.0, nowMs - openedAtMs_);
    state_ = BreakerState::Closed;
    consecutiveFailures_ = 0;
    consecutiveProbeSuccesses_ = 0;
    reopenCount_ = 0;
}

void
CircuitBreaker::finalize(double nowMs)
{
    if (state_ != BreakerState::Closed) {
        stats_.totalOpenMs += std::max(0.0, nowMs - openedAtMs_);
        openedAtMs_ = nowMs; // idempotence for repeated finalize
    }
}

} // namespace autoscale::serve
