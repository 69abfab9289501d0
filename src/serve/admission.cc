#include "serve/admission.h"

#include <algorithm>

#include "util/logging.h"

namespace autoscale::serve {

AdmissionQueue::AdmissionQueue(const AdmissionConfig &config)
    : config_(config)
{
    AS_CHECK(config_.maxDepth > 0);
}

void
AdmissionQueue::grow()
{
    // Double up to maxDepth from a two-slot first ring: most fleet
    // devices never hold more than a request or two, and a saturated
    // queue still settles at one allocation of maxDepth slots.
    const std::size_t cap = static_cast<std::size_t>(config_.maxDepth);
    std::size_t next = capacity_ == 0 ? std::min<std::size_t>(2, cap)
                                      : std::min(capacity_ * 2, cap);
    AS_CHECK(next > size_);
    auto ring = std::make_unique<QueuedRequest[]>(next);
    for (std::size_t i = 0; i < size_; ++i) {
        ring[i] = ring_[(head_ + i) % capacity_];
    }
    ring_ = std::move(ring);
    capacity_ = next;
    head_ = 0;
}

AdmissionVerdict
AdmissionQueue::offer(const QueuedRequest &request, double nowMs,
                      double ewmaServiceMs, double minServiceMs)
{
    if (static_cast<int>(size_) >= config_.maxDepth) {
        return AdmissionVerdict::ShedOverflow;
    }
    // Predicted completion: drain everyone already queued at the
    // estimated service rate, then run this request at its best case.
    // Admission is deliberately optimistic (minServiceMs, not the
    // EWMA, prices the request itself): the stale re-check at dequeue
    // catches estimates that aged badly, and shedding late is cheaper
    // than rejecting work the server could in fact have finished.
    const double start = std::max(nowMs, request.arrivalMs);
    const double predicted = start
        + static_cast<double>(size_) * ewmaServiceMs
        + minServiceMs;
    if (predicted > request.deadlineMs) {
        return AdmissionVerdict::ShedDeadline;
    }
    if (size_ == capacity_) {
        grow();
    }
    ring_[(head_ + size_) % capacity_] = request;
    ++size_;
    maxDepthSeen_ = std::max(maxDepthSeen_, size_);
    return AdmissionVerdict::Admitted;
}

const QueuedRequest &
AdmissionQueue::at(std::size_t i) const
{
    AS_CHECK(i < size_);
    return ring_[(head_ + i) % capacity_];
}

QueuedRequest
AdmissionQueue::pop()
{
    AS_CHECK(size_ > 0);
    QueuedRequest request = ring_[head_];
    head_ = (head_ + 1) % capacity_;
    --size_;
    return request;
}

int
AdmissionQueue::degradeLevel() const
{
    if (config_.degradeDepth <= 0) {
        return 0;
    }
    return static_cast<int>(size_) >= config_.degradeDepth ? 1 : 0;
}

} // namespace autoscale::serve
