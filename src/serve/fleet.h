/**
 * @file
 * Fleet serving (DESIGN.md §15): N devices, each running its own
 * DeviceLoop (own Scenario stream, ArrivalProcess, AdmissionQueue, and
 * agent), driven through one virtual-time event loop in which they
 * contend for shared infrastructure (SharedInfra): a finite-slot edge
 * server, a congestible Wi-Fi uplink, and a cloud whose brownout
 * windows hit every device in the same epoch.
 *
 * Determinism: device i's ServeConfig seed is replicateSeed(seed, i) —
 * a pure function of (master seed, device index) — and contention
 * state only changes at virtual-time barriers, where per-device usage
 * is folded and per-device observability merged in device-index order.
 * Shards are therefore pure work partitions: traces, metrics, stats,
 * and Q-tables are bit-identical for every --shards/--jobs value
 * (CI cmp-enforces this).
 *
 * Q-table modes: per-device learners are fully independent; "shared"
 * approximates one fleet-wide table by visit-count-weighted merging at
 * every epoch barrier; "federated" merges every
 * `federatedMergeEpochs` epochs. Merges never run mid-epoch. Every
 * peer starts as a copy-on-write share of device 0's table
 * (core/qtable.h), and a merge publishes one shared base, in place
 * when no table outside the merge holds it.
 */

#ifndef AUTOSCALE_SERVE_FLEET_H_
#define AUTOSCALE_SERVE_FLEET_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "core/qtable.h"
#include "serve/checkpoint.h"
#include "serve/churn.h"
#include "serve/server.h"
#include "serve/shared_infra.h"

namespace autoscale::core {
class AutoScaleScheduler;
} // namespace autoscale::core

namespace autoscale::serve {

/** How fleet learners share (or don't share) Q-tables. */
enum class QTableMode {
    PerDevice, ///< Independent learner per device (default).
    Shared,    ///< Visit-weighted merge at every epoch barrier.
    Federated, ///< Visit-weighted merge every `federatedMergeEpochs`.
};

/** Parse "per-device" / "shared" / "federated"; fatal() otherwise. */
QTableMode qTableModeFromName(const std::string &name);

/** Display name of @p mode. */
const char *qTableModeName(QTableMode mode);

/** One fleet run's configuration. */
struct FleetConfig {
    /**
     * Per-device serving template, resolved into the fleet's one
     * DevicePlan. Device 0 keeps serve.seed and runs the Q-table
     * provenance (checkpoint/--qtable/training); device i > 0 gets
     * seed replicateSeed(serve.seed, i) and warm starts from device
     * 0's table. On a fleet of more than one device, checkpointPath
     * and resume name the fleet manifest (fleet_checkpoint.h), never
     * a per-device checkpoint.
     */
    ServeConfig serve;
    int devices = 1;
    /**
     * Minimum partition count (a pure parallelism knob; never affects
     * output). A fleet larger than kDevicesPerShard x shards runs with
     * more partitions; see fleetShardCount.
     */
    int shards = 4;
    /** Worker threads; <= 0 means one per hardware thread. */
    int jobs = 0;
    QTableMode qMode = QTableMode::PerDevice;
    /** Barrier period between federated merges. */
    int federatedMergeEpochs = 8;
    /** Virtual-time barrier interval, ms. */
    double epochMs = 250.0;
    SharedInfraConfig infra;
    /** Device churn schedule (DESIGN.md §17); default: no churn. */
    ChurnConfig churn;
    /**
     * Fleet-manifest write period, in epochs, when serve.checkpointPath
     * is set on a multi-device fleet (1 = every barrier). The manifest
     * enables checkpoint-verified deterministic replay via
     * serve.resume; see fleet_checkpoint.h.
     */
    int checkpointEveryEpochs = 1;
    /**
     * Test knob: stop the run (without finalizing devices or exporting
     * anything beyond the fleet manifest) once this many epochs have
     * completed, simulating a crash at a deterministic barrier.
     * <= 0 disables.
     */
    int haltAfterEpochs = 0;
    /** Capture every device's final Q-table in FleetStats::qtableDump. */
    bool collectQTables = false;
    /**
     * Measure the run's memory footprint (peak RSS delta over the
     * fleet's lifetime) into FleetStats::peakRssBytes/bytesPerDevice.
     * Opt-in because the fleet report grows memory rows when set, and
     * golden tests pin the report bytes.
     */
    bool reportMemory = false;
};

/**
 * Fleet totals over every device, folded by runFleet from the
 * per-device stats. The energy sums run in device order from +0.0.
 */
struct FleetAggregate {
    std::int64_t arrivals = 0;
    std::int64_t served = 0;
    /** Shed at admission or dequeue (overflow, deadline, stale). */
    std::int64_t shed = 0;
    /** Requests lost to churn (crash/leave discards + offline loss). */
    std::int64_t shedChurn = 0;
    std::int64_t degraded = 0;
    std::int64_t qosViolations = 0;
    double energyJ = 0.0;
    double wastedEnergyJ = 0.0;
};

/** Fleet-level results: per-device stats plus contention aggregates. */
struct FleetStats {
    /** Per-device serving stats, in device-index order. */
    std::vector<ServeStats> devices;
    /** Fleet totals over every device. */
    FleetAggregate aggregate;
    /** Virtual-time barriers executed. */
    std::int64_t epochs = 0;
    /** Epochs covered by a shared cloud brownout window. */
    std::int64_t brownoutEpochs = 0;
    /** Distinct brownout windows (consecutive epochs count once). */
    std::int64_t brownoutWindows = 0;
    /** Worst per-offload edge queueing delay seen in any epoch, ms. */
    double maxEdgeQueueMs = 0.0;
    /** Worst Wi-Fi derate seen in any epoch (1.0 = never congested). */
    double minWifiDerate = 1.0;

    // --- Resilience (DESIGN.md §17); all 0 without churn/outages. ---
    /** Epochs covered by an edge-server outage window. */
    std::int64_t outageEpochs = 0;
    /** Distinct outage windows (consecutive epochs count once). */
    std::int64_t outageWindows = 0;
    /** Devices hard-crashed by the churn process. */
    std::int64_t churnCrashes = 0;
    /** Devices gracefully removed by the churn process. */
    std::int64_t churnLeaves = 0;
    /** Staggered first joins executed. */
    std::int64_t churnJoins = 0;
    /** Devices brought back after their offline window. */
    std::int64_t churnRejoins = 0;
    /** Sum over epochs of devices offline (or not yet joined). */
    std::int64_t offlineDeviceEpochs = 0;

    // --- Fleet checkpoint/resume reporting (stdout only; never in
    // metrics or traces, so a resumed run's exported artifacts stay
    // byte-identical to the uninterrupted run's). ---
    /** Whether a resume was requested and a manifest recovered. */
    bool resumed = false;
    CheckpointSource resumeSource = CheckpointSource::None;
    /** Last completed epoch in the recovered manifest (-1: none). */
    std::int64_t resumeEpoch = -1;
    /** Fleet manifests written during this run. */
    std::int64_t checkpointsWritten = 0;
    /** Manifest files that existed but failed validation. */
    int corruptCheckpoints = 0;
    /** Whether haltAfterEpochs stopped the run before completion. */
    bool halted = false;

    /** Latest device virtual clock at completion, ms. */
    double endClockMs = 0.0;

    // --- Memory footprint (FleetConfig::reportMemory only). ---
    /**
     * Largest resident set size sampled during the run (after
     * construction, at every barrier, and after finish), bytes;
     * 0 = unmeasured.
     */
    std::uint64_t peakRssBytes = 0;
    /**
     * (peakRssBytes - RSS at runFleet entry) / devices, or 0 if the
     * run never rose above its entry RSS. Only this run is charged: a
     * larger peak earlier in the process does not count, and neither
     * does a transient peak between two samples.
     */
    double bytesPerDevice = 0.0;
    /**
     * Order-sensitive fold of every device's RNG fingerprint and key
     * stats — the cross-shard equality probe bench_fleet gates on.
     */
    std::uint64_t checksum = 0;
    /**
     * Every device's final Q-table ("# device N" headers, saveQTable
     * text format) when FleetConfig::collectQTables is set; the CI
     * determinism gate byte-compares this across shard counts.
     */
    std::string qtableDump;

    /** Nearest-rank percentiles @p lower <= @p upper over all devices'
     * served latencies, from one pooled buffer. */
    std::pair<double, double> latencyPercentilesMs(double lower,
                                                   double upper) const;
};

/**
 * Devices per partition above which a fleet runs with more partitions
 * than FleetConfig::shards asks for, so an epoch splits into tasks
 * small enough for the pool's work stealing to balance.
 */
inline constexpr int kDevicesPerShard = 1024;

/**
 * The partition count runFleet uses:
 * min(devices, max(shards, ceil(devices / kDevicesPerShard))). A
 * fleet of at most kDevicesPerShard x shards devices keeps exactly the
 * partition it asked for.
 */
std::size_t fleetShardCount(const FleetConfig &config);

/**
 * Visit-count-weighted Q-table merge across @p schedulers: each cell
 * becomes sum(visits_i * Q_i) / sum(visits_i), written back to every
 * table; cells nobody visited are untouched. Merging a single
 * contributor is bitwise a no-op (the uint16 visit × float Q product
 * is exact in double and the division by the same visit count is
 * exact), so zero-visit peers never perturb a trained table.
 * Visit counts themselves are not merged: they keep encoding each
 * device's own experience for its learning-rate schedule.
 *
 * Cost: only rows some table has written since it last adopted a base
 * (its private rows), and rows where the bases the set holds differ,
 * are recomputed; every other row is the same in every table, where
 * the merge is a no-op. The result is published as one base that
 * every table of the set shares, plus a private row wherever a table
 * keeps values of its own (unvisited cells of a recomputed row). When
 * the set holds every reference to the base most of it reads, that base
 * is published in place; otherwise a copy is, so a table outside the
 * set (an offline device, a share() kept elsewhere) keeps its values.
 * Call it only where no other thread uses these tables (a barrier).
 */
void mergeQTablesVisitWeighted(
    const std::vector<core::AutoScaleScheduler *> &schedulers);

/**
 * The visit-weighted merge as a standalone table, computed WITHOUT
 * mutating any scheduler: device 0's values where nobody has visits,
 * the weighted merge elsewhere. This is the fleet checkpoint
 * manifest's recoverable Q-table artifact.
 */
core::QTable mergedQTableSnapshot(
    const std::vector<core::AutoScaleScheduler *> &schedulers);

/**
 * Run a fleet. Device traces go to per-shard buffers and metrics to
 * per-device blocks; both are flushed into @p obs in device-index
 * order after the last barrier, so @p obs sees bytes independent of
 * --shards/--jobs. A fleet of one device reproduces runServe's stats
 * and metrics bit for bit (its trace events add the fleet fields).
 */
FleetStats runFleet(const sim::InferenceSimulator &sim,
                    const FleetConfig &config, const obs::ObsContext &obs);

/** Human-readable fleet report (summary + contention tables). */
void printFleetReport(std::ostream &os, const FleetConfig &config,
                      const FleetStats &stats);

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_FLEET_H_
