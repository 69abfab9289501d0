/**
 * @file
 * CompactServeMetrics: the serve loop's one metrics recorder
 * (DESIGN.md §14, §18).
 *
 * Every serving device records into its own fixed-size block — dense
 * outcome/category counter arrays and fixed-bucket histograms, no
 * strings, no map lookups, no DecisionEvent — and `flush()` folds the
 * block into a MetricsRegistry with the exact merge() semantics:
 *
 *  - counters add; a lazily exported counter (per-outcome,
 *    per-category, serve.fleet.*) appears iff it was hit;
 *  - gauges last-write-wins in flush order;
 *  - histogram sums are left-folded per device in observation order
 *    and then across devices in flush order.
 *
 * A standalone device (runServe) owns its block and flushes it at the
 * end of DeviceState::finish(); a fleet pools one block per device and
 * flushes them in device-index order, so the export is independent of
 * --shards/--jobs. Nothing reaches the registry before the flush: a
 * run that dies mid-flight exports no serve.* series.
 */

#ifndef AUTOSCALE_SERVE_COMPACT_METRICS_H_
#define AUTOSCALE_SERVE_COMPACT_METRICS_H_

#include <array>
#include <cstdint>

#include "serve/device_state.h"
#include "sim/target.h"

namespace autoscale::obs {
class MetricsRegistry;
} // namespace autoscale::obs

namespace autoscale::serve {

/**
 * Fixed-capacity histogram accumulator: bucket counts plus the
 * order-sensitive (count, sum, min, max) fold, bit-identical to
 * MetricsRegistry's histogram for the same observation sequence.
 * Bucket bounds live in one shared table (they are identical for
 * every device), not in the block.
 */
template <std::size_t NumBounds>
struct CompactHistogram {
    std::array<std::int64_t, NumBounds + 1> buckets{};
    std::int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void
    observe(const std::array<double, NumBounds> &bounds, double value)
    {
        // First bucket whose inclusive upper bound admits the value;
        // the trailing overflow bucket catches the rest (identical to
        // MetricsRegistry::observeLocked).
        std::size_t bucket = 0;
        while (bucket < NumBounds && bounds[bucket] < value) {
            ++bucket;
        }
        ++buckets[bucket];
        if (count == 0) {
            min = value;
            max = value;
        } else {
            min = value < min ? value : min;
            max = value > max ? value : max;
        }
        ++count;
        sum += value;
    }
};

/**
 * One serving device's complete serve-metrics state. recordServed's
 * operation order is part of the contract: each histogram's sum is an
 * order-sensitive fold, pinned by the metrics digests in the tests.
 */
class CompactServeMetrics {
  public:
    /**
     * Histogram bucket bounds — the one table for every serve.*
     * histogram. declareServeHistograms declares from these, and
     * tests/test_serve pins the latency/energy tables equal to
     * MetricsRegistry::latencyBucketsMs()/energyBucketsMj().
     */
    static constexpr std::array<double, 15> kLatencyBoundsMs = {
        0.5, 1, 2, 5, 10, 20, 33.3, 50, 75, 100, 150, 250, 500, 1000,
        2500};
    static constexpr std::array<double, 13> kEnergyBoundsMj = {
        0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000};
    static constexpr std::array<double, 9> kQueueDepthBounds = {
        0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0};
    static constexpr std::array<double, 8> kDerateBounds = {
        0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0};

    void recordShed(ServeOutcomeId outcome, int depth);

    void recordServed(sim::TargetCategoryId category, bool qosViolated,
                      bool degraded, bool shortCircuit, bool faultFallback,
                      double waitMs, double latencyMs, double energyMj,
                      int depth);

    /** serve.fleet.* contention series: the three names export
     * together, and only once a request touched shared infra. */
    void observeEdgeWait(double waitMs);
    void observeCloud(double derate, bool brownoutHit);

    /** One checkpoint written (serve.checkpoints). */
    void recordCheckpoint();

    /** The end-of-run counter/gauge block of DeviceState::finish. */
    void recordFinish(std::int64_t arrivals, std::int64_t breakerOpens,
                      std::int64_t breakerProbes, double maxQueueDepth,
                      double breakerOpenMs);

    /**
     * Fold this block into @p parent with MetricsRegistry::merge
     * semantics. Call once per device, in device-index order.
     */
    void flush(obs::MetricsRegistry &parent) const;

  private:
    // Counter values. The five "eager" counters (qos_violations,
    // degraded, breaker.short_circuits, fault.fallbacks, checkpoints)
    // always export, even at zero; outcome/decision counters export
    // only once hit.
    std::int64_t qosViolations_ = 0;
    std::int64_t degraded_ = 0;
    std::int64_t breakerShortCircuits_ = 0;
    std::int64_t faultFallbacks_ = 0;
    std::int64_t checkpoints_ = 0;
    std::array<std::int64_t, kNumServeOutcomes> outcomeCounts_{};
    std::array<std::int64_t, sim::kNumTargetCategories> decisionCounts_{};

    // serve.* histograms (always exported, even when empty).
    CompactHistogram<kLatencyBoundsMs.size()> latencyMs_;
    CompactHistogram<kLatencyBoundsMs.size()> waitMs_;
    CompactHistogram<kEnergyBoundsMj.size()> energyMj_;
    CompactHistogram<kQueueDepthBounds.size()> queueDepth_;

    // Lazily resolved serve.fleet.* series.
    bool fleetResolved_ = false;
    std::int64_t brownoutServed_ = 0;
    CompactHistogram<kLatencyBoundsMs.size()> edgeWaitMs_;
    CompactHistogram<kDerateBounds.size()> congestionDerate_;

    // End-of-run block (recorded by DeviceState::finish exactly once).
    bool finishRecorded_ = false;
    std::int64_t arrivals_ = 0;
    std::int64_t breakerOpens_ = 0;
    std::int64_t breakerProbes_ = 0;
    double maxQueueDepth_ = 0.0;
    double breakerOpenMs_ = 0.0;
};

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_COMPACT_METRICS_H_
