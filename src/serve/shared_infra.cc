#include "serve/shared_infra.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/period.h"

namespace autoscale::serve {

SharedInfra::SharedInfra(const SharedInfraConfig &config) : config_(config)
{
    AS_CHECK(config_.edgeCapacity >= 1.0);
    AS_CHECK(config_.wifiCapacity >= 1.0);
    AS_CHECK(config_.contention > 0.0);
    AS_CHECK(config_.brownoutPeriodMs >= 0.0);
    AS_CHECK(config_.brownoutDurationMs >= 0.0);
    AS_CHECK(config_.brownoutSlowdown >= 1.0);
    AS_CHECK(config_.outagePeriodMs >= 0.0);
    AS_CHECK(config_.outageDurationMs >= 0.0);
}

SharedSnapshot
SharedInfra::snapshotFor(double epochStartMs, double epochMs,
                         const std::vector<EpochUsage> &usage) const
{
    AS_CHECK(epochMs > 0.0);
    // Fold usage in the (device-index) order given. A device occupies
    // at most one slot at a time, so its per-epoch busy time is clamped
    // to the epoch length (the final commit of an epoch may overshoot
    // the barrier).
    double edgeBusyMs = 0.0;
    double cloudBusyMs = 0.0;
    std::int64_t edgeJobs = 0;
    std::int64_t cloudJobs = 0;
    for (const EpochUsage &u : usage) {
        edgeBusyMs += std::min(u.edgeBusyMs, epochMs);
        cloudBusyMs += std::min(u.cloudBusyMs, epochMs);
        edgeJobs += u.edgeJobs;
        cloudJobs += u.cloudJobs;
    }

    SharedSnapshot snapshot;

    // Edge outage windows live in fleet virtual time like brownouts;
    // during one the edge server has no slots at all, so every unit of
    // observed edge concurrency is excess.
    if (config_.outagePeriodMs > 0.0 && config_.outageDurationMs > 0.0) {
        snapshot.edgeOutage =
            periodPhase(epochStartMs, config_.outagePeriodMs)
            < config_.outageDurationMs;
    }
    const double effectiveEdgeCapacity =
        snapshot.edgeOutage ? 0.0 : config_.edgeCapacity;

    // Edge server: mean concurrency beyond the slot count queues. The
    // per-offload wait is the excess times the mean edge service time
    // (each queued job waits for that much work ahead of it).
    const double edgeConcurrency =
        (edgeBusyMs / epochMs) * config_.contention;
    const double excess =
        std::max(0.0, edgeConcurrency - effectiveEdgeCapacity);
    if (excess > 0.0 && edgeJobs > 0) {
        const double meanServiceMs =
            edgeBusyMs / static_cast<double>(edgeJobs);
        snapshot.edgeQueueMs = excess * meanServiceMs;
        snapshot.edgeQueueDepth = static_cast<int>(std::ceil(excess));
    }
    if (snapshot.edgeOutage) {
        // A dead edge parks every offload until service resumes: the
        // wait is at least the outage time remaining at epoch start
        // (plus whatever backlog accumulated above), even when the
        // previous epoch saw no edge demand at all.
        const double remainMs = config_.outageDurationMs
            - periodPhase(epochStartMs, config_.outagePeriodMs);
        snapshot.edgeQueueMs += remainMs;
    }

    // Wi-Fi: concurrent transfers beyond capacity share the channel,
    // derating the effective rate smoothly toward zero. Exactly 1.0
    // (the bitwise-neutral identity) when there is no excess.
    const double wifiConcurrency =
        (cloudBusyMs / epochMs) * config_.contention;
    const double wifiExcess =
        std::max(0.0, wifiConcurrency - config_.wifiCapacity);
    if (wifiExcess > 0.0) {
        snapshot.wifiDerate =
            config_.wifiCapacity / (config_.wifiCapacity + wifiExcess);
    }

    // Shared cloud brownout windows are anchored in fleet virtual time,
    // so every device sees the same window in the same epoch.
    if (config_.brownoutPeriodMs > 0.0 && config_.brownoutDurationMs > 0.0) {
        if (periodPhase(epochStartMs, config_.brownoutPeriodMs)
            < config_.brownoutDurationMs) {
            snapshot.brownout = true;
            snapshot.cloudSlowdown = config_.brownoutSlowdown;
        }
    }
    return snapshot;
}

} // namespace autoscale::serve
