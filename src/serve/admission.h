/**
 * @file
 * Bounded, deadline-aware admission control for the serving loop
 * (DESIGN.md §12). Arrivals the server cannot finish in time are shed
 * *at admission* — before they consume queue space or compute — by
 * comparing each request's QoS deadline against a service-time
 * estimate (EWMA of observed service times plus the request's best-case
 * service floor). A hard depth cap bounds memory and tail latency under
 * any overload, and a shallower "degrade" watermark drives the
 * graceful-degradation ladder: above it the server overrides expensive
 * remote/high-precision decisions with the cheap local variant before
 * it ever starts dropping work.
 */

#ifndef AUTOSCALE_SERVE_ADMISSION_H_
#define AUTOSCALE_SERVE_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace autoscale::serve {

/** Admission-control tuning. */
struct AdmissionConfig {
    /** Hard queue depth cap; arrivals beyond it are shed. */
    int maxDepth = 64;
    /**
     * Depth at which the degradation ladder engages (decisions are
     * forced onto the cheap local variant). <= 0 disables degradation.
     */
    int degradeDepth = 8;
};

/** Why an arrival was (not) admitted. */
enum class AdmissionVerdict {
    Admitted,     ///< Enqueued.
    ShedOverflow, ///< Queue at maxDepth.
    ShedDeadline, ///< Predicted completion past the QoS deadline.
};

/** One queued (admitted, not yet served) request. */
struct QueuedRequest {
    /** Arrival sequence number (stable across reruns). */
    std::int64_t id = 0;
    /** Virtual arrival time, ms. */
    double arrivalMs = 0.0;
    /** Absolute completion deadline, ms (arrival + QoS target). */
    double deadlineMs = 0.0;
    /** Index into the serving loop's workload set. */
    int networkIndex = 0;
};

/**
 * FIFO admission queue with load shedding.
 *
 * Storage is a lazily allocated growable ring buffer rather than a
 * std::deque: a fleet holds one queue per device, most of which are
 * shallow or briefly used, and the deque's eagerly allocated chunk map
 * costs ~0.5 KB per device before a single request arrives
 * (DESIGN.md §18). An idle queue owns no heap at all; the first admit
 * allocates two slots, and the ring doubles up to maxDepth on demand.
 * FIFO order and the admission arithmetic are unchanged.
 */
class AdmissionQueue {
  public:
    explicit AdmissionQueue(const AdmissionConfig &config);

    /**
     * Try to admit @p request at time @p nowMs. @p ewmaServiceMs is the
     * server's current per-request service-time estimate (used to price
     * the wait behind the existing queue); @p minServiceMs is the
     * request's own best-case service time. Rejecting here is what
     * keeps the accepted-request tail latency inside QoS no matter how
     * hard the arrival process overloads the server.
     */
    AdmissionVerdict offer(const QueuedRequest &request, double nowMs,
                           double ewmaServiceMs, double minServiceMs);

    bool empty() const { return size_ == 0; }
    std::size_t depth() const { return size_; }

    const QueuedRequest &front() const { return at(0); }

    /**
     * Peek the @p i-th queued request from the head without removing it
     * (i < depth()).
     */
    const QueuedRequest &at(std::size_t i) const;

    /** Remove and return the head (queue must be non-empty). */
    QueuedRequest pop();

    /**
     * Degradation-ladder level for the *next* decision: 0 = none,
     * 1 = force the cheap local variant. Driven by current depth.
     */
    int degradeLevel() const;

    /** High-water mark of depth() over the queue's lifetime. */
    std::size_t maxDepthSeen() const { return maxDepthSeen_; }

    const AdmissionConfig &config() const { return config_; }

  private:
    /** Grow the ring so at least one more slot is free. */
    void grow();

    AdmissionConfig config_;
    /** Ring storage; null until the first admit. */
    std::unique_ptr<QueuedRequest[]> ring_;
    std::size_t capacity_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t maxDepthSeen_ = 0;
};

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_ADMISSION_H_
