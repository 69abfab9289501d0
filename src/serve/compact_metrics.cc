#include "serve/compact_metrics.h"

#include <string>
#include <vector>

#include "obs/metrics_registry.h"

namespace autoscale::serve {

namespace {

template <std::size_t N>
obs::MetricsRegistry::HistogramSnapshot
toSnapshot(const CompactHistogram<N> &histogram,
           const std::array<double, N> &bounds)
{
    obs::MetricsRegistry::HistogramSnapshot snapshot;
    snapshot.upperBounds.assign(bounds.begin(), bounds.end());
    snapshot.bucketCounts.assign(histogram.buckets.begin(),
                                 histogram.buckets.end());
    snapshot.count = histogram.count;
    snapshot.sum = histogram.sum;
    snapshot.min = histogram.min;
    snapshot.max = histogram.max;
    return snapshot;
}

} // namespace

void
declareServeHistograms(obs::MetricsRegistry &metrics)
{
    const auto &latency = CompactServeMetrics::kLatencyBoundsMs;
    const auto &energy = CompactServeMetrics::kEnergyBoundsMj;
    const auto &depth = CompactServeMetrics::kQueueDepthBounds;
    metrics.declareHistogram("serve.latency_ms",
                             {latency.begin(), latency.end()});
    metrics.declareHistogram("serve.wait_ms",
                             {latency.begin(), latency.end()});
    metrics.declareHistogram("serve.energy_mj",
                             {energy.begin(), energy.end()});
    metrics.declareHistogram("serve.queue_depth",
                             {depth.begin(), depth.end()});
}

void
CompactServeMetrics::recordShed(ServeOutcomeId outcome, int depth)
{
    ++outcomeCounts_[static_cast<std::size_t>(outcome)];
    queueDepth_.observe(kQueueDepthBounds, static_cast<double>(depth));
}

void
CompactServeMetrics::recordServed(sim::TargetCategoryId category,
                                  bool qosViolated, bool degraded,
                                  bool shortCircuit, bool faultFallback,
                                  double waitMs, double latencyMs,
                                  double energyMj, int depth)
{
    // This operation order is pinned: each histogram's sum is an
    // order-sensitive fold, and the exported metrics digests in the
    // tests were recorded with exactly this sequence.
    ++outcomeCounts_[static_cast<std::size_t>(kServed)];
    queueDepth_.observe(kQueueDepthBounds, static_cast<double>(depth));
    ++decisionCounts_[static_cast<std::size_t>(category)];
    if (qosViolated) {
        ++qosViolations_;
    }
    if (degraded) {
        ++degraded_;
    }
    if (shortCircuit) {
        ++breakerShortCircuits_;
    }
    if (faultFallback) {
        ++faultFallbacks_;
    }
    waitMs_.observe(kLatencyBoundsMs, waitMs);
    latencyMs_.observe(kLatencyBoundsMs, latencyMs);
    energyMj_.observe(kEnergyBoundsMj, energyMj);
}

void
CompactServeMetrics::observeEdgeWait(double waitMs)
{
    fleetResolved_ = true;
    edgeWaitMs_.observe(kLatencyBoundsMs, waitMs);
}

void
CompactServeMetrics::observeCloud(double derate, bool brownoutHit)
{
    fleetResolved_ = true;
    congestionDerate_.observe(kDerateBounds, derate);
    if (brownoutHit) {
        ++brownoutServed_;
    }
}

void
CompactServeMetrics::recordCheckpoint()
{
    ++checkpoints_;
}

void
CompactServeMetrics::recordFinish(std::int64_t arrivals,
                                  std::int64_t breakerOpens,
                                  std::int64_t breakerProbes,
                                  double maxQueueDepth,
                                  double breakerOpenMs)
{
    finishRecorded_ = true;
    arrivals_ = arrivals;
    breakerOpens_ = breakerOpens;
    breakerProbes_ = breakerProbes;
    maxQueueDepth_ = maxQueueDepth;
    breakerOpenMs_ = breakerOpenMs;
}

void
CompactServeMetrics::flush(obs::MetricsRegistry &parent) const
{
    // Counters: the eager five always export, even at zero; lazily
    // exported names only once hit. counter() creates absent names at
    // zero, so add() reproduces merge()'s counter fold exactly.
    parent.counter("serve.qos_violations").add(qosViolations_);
    parent.counter("serve.degraded").add(degraded_);
    parent.counter("serve.breaker.short_circuits")
        .add(breakerShortCircuits_);
    parent.counter("serve.fault.fallbacks").add(faultFallbacks_);
    parent.counter("serve.checkpoints").add(checkpoints_);
    for (std::size_t i = 0; i < outcomeCounts_.size(); ++i) {
        if (outcomeCounts_[i] > 0) {
            parent.counter(std::string("serve.") + kServeOutcomeNames[i])
                .add(outcomeCounts_[i]);
        }
    }
    for (std::size_t i = 0; i < decisionCounts_.size(); ++i) {
        if (decisionCounts_[i] > 0) {
            parent
                .counter("serve.decisions."
                         + obs::metricSlug(sim::targetCategoryName(
                             static_cast<sim::TargetCategoryId>(i))))
                .add(decisionCounts_[i]);
        }
    }

    // serve.* histograms (exported even untouched).
    parent.mergeHistogram("serve.latency_ms",
                          toSnapshot(latencyMs_, kLatencyBoundsMs));
    parent.mergeHistogram("serve.wait_ms",
                          toSnapshot(waitMs_, kLatencyBoundsMs));
    parent.mergeHistogram("serve.energy_mj",
                          toSnapshot(energyMj_, kEnergyBoundsMj));
    parent.mergeHistogram("serve.queue_depth",
                          toSnapshot(queueDepth_, kQueueDepthBounds));

    // serve.fleet.* only exists once a request touched shared
    // infrastructure; the three names appear together, brownout_served
    // possibly still zero.
    if (fleetResolved_) {
        parent.mergeHistogram("serve.fleet.edge_wait_ms",
                              toSnapshot(edgeWaitMs_, kLatencyBoundsMs));
        parent.mergeHistogram(
            "serve.fleet.congestion_derate",
            toSnapshot(congestionDerate_, kDerateBounds));
        parent.counter("serve.fleet.brownout_served").add(brownoutServed_);
    }

    // End-of-run block (DeviceState::finish). Gauges last-write-wins in
    // flush order (device-index order in a fleet).
    if (finishRecorded_) {
        parent.inc("serve.arrivals", arrivals_);
        parent.inc("serve.breaker.opens", breakerOpens_);
        parent.inc("serve.breaker.probes", breakerProbes_);
        parent.set("serve.max_queue_depth", maxQueueDepth_);
        parent.set("serve.breaker.open_ms", breakerOpenMs_);
    }
}

} // namespace autoscale::serve
