#include "serve/fleet.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "core/agent.h"
#include "core/qtable.h"
#include "core/scheduler.h"
#include "harness/parallel.h"
#include "obs/trace_recorder.h"
#include "serve/compact_metrics.h"
#include "serve/device_loop.h"
#include "serve/device_state.h"
#include "serve/fleet_checkpoint.h"
#include "util/hash_mix.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace autoscale::serve {

QTableMode
qTableModeFromName(const std::string &name)
{
    if (name == "per-device") {
        return QTableMode::PerDevice;
    }
    if (name == "shared") {
        return QTableMode::Shared;
    }
    if (name == "federated") {
        return QTableMode::Federated;
    }
    fatal("unknown --q-mode '" + name
          + "' (expected per-device, shared, or federated)");
}

const char *
qTableModeName(QTableMode mode)
{
    switch (mode) {
    case QTableMode::PerDevice:
        return "per-device";
    case QTableMode::Shared:
        return "shared";
    case QTableMode::Federated:
        return "federated";
    }
    panic("unreachable q-table mode");
}

std::pair<double, double>
FleetStats::latencyPercentilesMs(double lower, double upper) const
{
    std::size_t samples = 0;
    for (const ServeStats &device : devices) {
        samples += device.latenciesMs.size();
    }
    std::vector<double> pooled;
    pooled.reserve(samples);
    for (const ServeStats &device : devices) {
        pooled.insert(pooled.end(), device.latenciesMs.begin(),
                      device.latenciesMs.end());
    }
    return percentilesNearestRank(pooled, lower, upper);
}

namespace {

void
checkMergeShapes(const std::vector<core::AutoScaleScheduler *> &schedulers)
{
    for (const core::AutoScaleScheduler *scheduler : schedulers) {
        AS_CHECK(scheduler != nullptr);
    }
    const core::QTable &first = schedulers.front()->agent().table();
    for (const core::AutoScaleScheduler *scheduler : schedulers) {
        const core::QTable &table = scheduler->agent().table();
        AS_CHECK(table.numStates() == first.numStates());
        AS_CHECK(table.numActions() == first.numActions());
    }
}

/**
 * The visit-weighted sums of the rows a merge can change: the
 * "candidate" rows, where some table of the set holds a private row or
 * the distinct bases the set reads through differ. Every other row
 * holds the same value q in every table, and re-merging it is a
 * bitwise no-op: each visits x q product is exact in double, so is
 * their sum (while a cell's total stays below 2^29 visits), and
 * dividing by the total returns q.
 *
 * Each cell's sum runs in device-index order, like the dense
 * definition. Zero-visit terms are added too, which is exact: they add
 * 0 visits and +-0 to a sum that starts at +0 and so never reads -0.
 */
struct MergedRows {
    std::size_t width = 0;
    /** Candidate states, ascending. */
    std::vector<int> states;
    /** Candidate index of each state; -1 off the candidate rows. */
    std::vector<int> slotOf;
    /** Per candidate cell: total visits, and sum of visits x Q. */
    std::vector<std::int64_t> visits;
    std::vector<double> weighted;
    /** A table reading through the base most of the set holds. */
    const core::QTable *reference = nullptr;
    /** Tables of the set that read through the reference's base. */
    long referenceHolders = 0;
    /** Distinct bases the set reads through. */
    std::size_t bases = 0;

    /**
     * Row @p slot after the merge, for a table whose own values there
     * are @p own: the merged value where the set has visits, @p own
     * elsewhere.
     */
    void
    mergedRow(std::size_t slot, const float *own, float *out) const
    {
        const std::size_t begin = slot * width;
        for (std::size_t a = 0; a < width; ++a) {
            const std::int64_t total = visits[begin + a];
            out[a] = total > 0
                ? static_cast<float>(weighted[begin + a]
                                     / static_cast<double>(total))
                : own[a];
        }
    }

    /**
     * mergedRow without its divisions, once @p published holds the
     * merged row over the reference base's: it takes the merged values
     * from there and @p own's where the set has no visits.
     */
    void
    tableRow(std::size_t slot, const float *own, const float *published,
             float *out) const
    {
        const std::size_t begin = slot * width;
        for (std::size_t a = 0; a < width; ++a) {
            out[a] = visits[begin + a] > 0 ? published[a] : own[a];
        }
    }
};

MergedRows
sumCandidateRows(const std::vector<core::AutoScaleScheduler *> &schedulers)
{
    const core::QTable &first = schedulers.front()->agent().table();
    const int numStates = first.numStates();
    MergedRows merged;
    merged.width = static_cast<std::size_t>(first.numActions());

    // Distinct bases with their holder counts, in first-seen order.
    std::vector<std::pair<const core::QTable *, long>> bases;
    for (const core::AutoScaleScheduler *scheduler : schedulers) {
        const core::QTable &table = scheduler->agent().table();
        auto held = std::find_if(bases.begin(), bases.end(),
                                 [&](const auto &base) {
                                     return base.first->baseId()
                                         == table.baseId();
                                 });
        if (held == bases.end()) {
            bases.emplace_back(&table, 1);
        } else {
            ++held->second;
        }
    }
    const auto reference =
        std::max_element(bases.begin(), bases.end(),
                         [](const auto &a, const auto &b) {
                             return a.second < b.second;
                         });
    merged.reference = reference->first;
    merged.referenceHolders = reference->second;
    merged.bases = bases.size();

    std::vector<char> candidate(static_cast<std::size_t>(numStates), 0);
    for (const core::AutoScaleScheduler *scheduler : schedulers) {
        for (const int state : scheduler->agent().table().privateStates()) {
            candidate[static_cast<std::size_t>(state)] = 1;
        }
    }
    for (const auto &[table, holders] : bases) {
        if (table == merged.reference) {
            continue;
        }
        for (int state = 0; state < numStates; ++state) {
            if (std::memcmp(table->baseRow(state),
                            merged.reference->baseRow(state),
                            merged.width * sizeof(float))
                != 0) {
                candidate[static_cast<std::size_t>(state)] = 1;
            }
        }
    }
    merged.slotOf.assign(static_cast<std::size_t>(numStates), -1);
    for (int state = 0; state < numStates; ++state) {
        if (candidate[static_cast<std::size_t>(state)] != 0) {
            merged.slotOf[static_cast<std::size_t>(state)] =
                static_cast<int>(merged.states.size());
            merged.states.push_back(state);
        }
    }

    const std::size_t cells = merged.states.size() * merged.width;
    merged.visits.assign(cells, 0);
    merged.weighted.assign(cells, 0.0);
    for (const core::AutoScaleScheduler *scheduler : schedulers) {
        const core::QLearningAgent &agent = scheduler->agent();
        for (const int state : agent.visitedStates()) {
            const int slot = merged.slotOf[static_cast<std::size_t>(state)];
            if (slot < 0) {
                continue;
            }
            const std::uint16_t *visits = agent.visitRow(state);
            const float *values = agent.table().row(state);
            const std::size_t begin =
                static_cast<std::size_t>(slot) * merged.width;
            for (std::size_t a = 0; a < merged.width; ++a) {
                merged.visits[begin + a] += visits[a];
                merged.weighted[begin + a] += static_cast<double>(visits[a])
                    * static_cast<double>(values[a]);
            }
        }
    }
    return merged;
}

} // namespace

void
mergeQTablesVisitWeighted(
    const std::vector<core::AutoScaleScheduler *> &schedulers)
{
    if (schedulers.size() < 2) {
        return;
    }
    checkMergeShapes(schedulers);
    // One base and no private rows: every table already reads the
    // merged values. Checked before the sums, which would allocate and
    // walk every device's visited rows only to find no candidate row.
    const void *firstBase = schedulers.front()->agent().table().baseId();
    if (std::all_of(schedulers.begin(), schedulers.end(),
                    [&](const core::AutoScaleScheduler *scheduler) {
                        const core::QTable &table =
                            scheduler->agent().table();
                        return table.baseId() == firstBase
                            && table.privateStates().empty();
                    })) {
        return;
    }
    const MergedRows merged = sumCandidateRows(schedulers);
    const std::size_t width = merged.width;

    // The new base: the reference base with every candidate row merged.
    // When the set holds every reference to that base, nobody outside
    // it can see the base change, so it is published in place (the sums
    // above have already read every row it overwrites). Otherwise (an
    // offline device, a share() kept elsewhere) it is published as a
    // copy and the outside holders keep the old values.
    const void *referenceId = merged.reference->baseId();
    core::QTable published =
        merged.reference->baseHolders() == merged.referenceHolders
        ? merged.reference->baseShare()
        : merged.reference->baseCopy();
    for (std::size_t slot = 0; slot < merged.states.size(); ++slot) {
        float *row = published.mergeBaseRow(merged.states[slot]);
        merged.mergedRow(slot, row, row);
    }

    // Every table then reads through the published base and keeps a
    // private row only where its merged row differs from the base's: at
    // cells nobody in the set visited, where it held values of its own.
    // A table on the reference base can differ only at its private rows.
    // `published` holds the base throughout, so the kept rows always
    // land in private rows.
    std::vector<int> keptStates;
    std::vector<float> keptRows;
    std::vector<float> row(width);
    for (core::AutoScaleScheduler *scheduler : schedulers) {
        core::QTable &table = scheduler->mutableAgent().mutableTable();
        const std::vector<int> &check = table.baseId() == referenceId
            ? table.privateStates()
            : merged.states;
        keptStates.clear();
        keptRows.clear();
        for (const int state : check) {
            const std::size_t slot = static_cast<std::size_t>(
                merged.slotOf[static_cast<std::size_t>(state)]);
            merged.tableRow(slot, table.row(state), published.baseRow(state),
                            row.data());
            if (std::memcmp(row.data(), published.baseRow(state),
                            width * sizeof(float))
                != 0) {
                keptStates.push_back(state);
                keptRows.insert(keptRows.end(), row.begin(), row.end());
            }
        }
        table.rebase(published);
        for (std::size_t k = 0; k < keptStates.size(); ++k) {
            std::copy_n(keptRows.begin()
                            + static_cast<std::ptrdiff_t>(k * width),
                        width, table.mutableRow(keptStates[k]));
        }
    }
}

core::QTable
mergedQTableSnapshot(
    const std::vector<core::AutoScaleScheduler *> &schedulers)
{
    AS_CHECK(!schedulers.empty());
    checkMergeShapes(schedulers);
    core::QTable snapshot = schedulers.front()->agent().table();
    if (schedulers.size() < 2) {
        return snapshot;
    }
    const MergedRows merged = sumCandidateRows(schedulers);
    for (std::size_t slot = 0; slot < merged.states.size(); ++slot) {
        float *row = snapshot.mutableRow(merged.states[slot]);
        merged.mergedRow(slot, row, row);
    }
    return snapshot;
}

std::size_t
fleetShardCount(const FleetConfig &config)
{
    const std::size_t n = static_cast<std::size_t>(config.devices);
    const std::size_t perShard = static_cast<std::size_t>(kDevicesPerShard);
    return std::min(n, std::max(static_cast<std::size_t>(config.shards),
                                (n + perShard - 1) / perShard));
}

FleetStats
runFleet(const sim::InferenceSimulator &sim, const FleetConfig &config,
         const obs::ObsContext &obs)
{
    AS_CHECK(config.devices >= 1);
    AS_CHECK(config.shards >= 1);
    AS_CHECK(config.epochMs > 0.0);
    AS_CHECK(config.federatedMergeEpochs >= 1);
    AS_CHECK(config.checkpointEveryEpochs >= 1);
    const std::size_t n = static_cast<std::size_t>(config.devices);
    const bool learnerPolicy = config.serve.policyName.empty()
        || config.serve.policyName == "autoscale";
    if (config.qMode != QTableMode::PerDevice && !learnerPolicy) {
        fatal("fleet: --q-mode shared/federated requires the autoscale"
              " policy");
    }
    const int jobs =
        config.jobs > 0 ? config.jobs : harness::defaultJobs();
    const std::size_t shards = fleetShardCount(config);
    const std::size_t perShard = (n + shards - 1) / shards;
    // Shard s owns devices [begin, end); trailing shards may be empty.
    auto shardRange = [&](std::size_t shard) {
        const std::size_t begin = std::min(n, shard * perShard);
        return std::make_pair(begin, std::min(n, begin + perShard));
    };
    // Memory is charged as the largest RSS sampled during this run over
    // the RSS at entry, never the process-lifetime peak. The entry RSS
    // is read after free heap is returned, so memory that earlier work
    // freed and this run reuses still counts.
    if (config.reportMemory) {
        util::releaseFreeHeap();
    }
    const std::uint64_t rssBaseline =
        config.reportMemory ? util::currentRssBytes() : 0;
    std::uint64_t rssPeak = 0;
    auto sampleRss = [&] {
        if (config.reportMemory) {
            rssPeak = std::max(rssPeak, util::currentRssBytes());
        }
    };

    // One pool for the fleet's lifetime: every O(N) phase (construction,
    // each epoch, finish) runs one task per shard on it. With one
    // worker the shards run inline on this thread.
    const std::size_t workers =
        jobs > 1 ? std::min(static_cast<std::size_t>(jobs), shards) : 1;
    std::optional<ThreadPool> pool;
    if (workers > 1) {
        pool.emplace(static_cast<int>(workers));
    }
    auto forEachShard = [&](const std::function<void(std::size_t)> &body) {
        if (pool) {
            pool->parallelFor(shards, body);
        } else {
            for (std::size_t shard = 0; shard < shards; ++shard) {
                body(shard);
            }
        }
    };

    // --- Observability sinks. Devices record concurrently; the parent
    // sinks receive an index-ordered flush after the run, so exported
    // bytes never depend on shards/jobs (DESIGN.md §18): one trace
    // buffer per shard (a stable sort by device id at flush restores
    // per-device order) and one pooled CompactServeMetrics block per
    // device, flushed in device-index order. Nothing is allocated when
    // observability is off. ---
    std::vector<obs::TraceRecorder> shardTraces;
    std::vector<CompactServeMetrics> blocks;
    if (obs.tracing()) {
        shardTraces.assign(shards, obs::TraceRecorder(true));
    }
    if (obs.metering()) {
        blocks.resize(n);
    }

    // A multi-device fleet owns its checkpoint path at the fleet level
    // (the epoch-barrier manifest, fleet_checkpoint.h); no device may
    // also run the single-device per-request checkpointer against the
    // same file. A fleet of one keeps the single-device semantics.
    FleetStats stats;
    std::optional<CheckpointManager> fleetCheckpoint;
    std::int64_t resumeEpoch = -1;
    std::uint64_t resumeStateDigest = 0;
    const std::uint64_t configDigest = fleetConfigDigest(config);
    ServeConfig deviceConfig = config.serve;
    if (n > 1 && !config.serve.checkpointPath.empty()) {
        deviceConfig.checkpointPath.clear();
        deviceConfig.resume = false;
        fleetCheckpoint.emplace(config.serve.checkpointPath);
        if (config.serve.resume) {
            const CheckpointLoadResult<FleetManifest> loaded =
                fleetCheckpoint->load(decodeFleetManifest);
            stats.corruptCheckpoints = loaded.corruptDetected;
            if (loaded.loaded) {
                if (loaded.data.configDigest != configDigest) {
                    fatal("fleet resume: '" + fleetCheckpoint->path()
                          + "' was written by a run with a different"
                            " configuration; deterministic replay"
                            " requires the exact config of the"
                            " interrupted run (only --shards/--jobs"
                            " may differ)");
                }
                stats.resumed = true;
                stats.resumeSource = loaded.source;
                stats.resumeEpoch = loaded.data.epoch;
                resumeEpoch = loaded.data.epoch;
                resumeStateDigest = loaded.data.stateDigest;
            }
            // Nothing recoverable: cold start, like single-device
            // --resume with no checkpoint on disk.
        }
    }

    // --- Devices (DESIGN.md §18): one immutable plan shared by every
    // device and one contiguous record array per shard (reserved up
    // front — the DeviceLoop views hold stable pointers into it).
    // Device 0 keeps the master seed and runs the Q-table provenance
    // (checkpoint > --qtable > pre-training) on this thread; then every
    // shard builds its peers on the pool, each peer i warm-starting
    // from device 0's table with seed replicateSeed(master, i), a pure
    // function of (plan, i, device 0). ---
    const DevicePlan plan = makeDevicePlan(sim, deviceConfig);
    std::vector<std::vector<DeviceState>> records(shards);
    const core::AutoScaleScheduler *warm = nullptr;
    auto buildDevice = [&](std::size_t shard, std::size_t i) {
        obs::ObsContext deviceObs;
        if (obs.tracing()) {
            deviceObs.trace = &shardTraces[shard];
        }
        DeviceState &record = records[shard].emplace_back(
            plan, deviceObs, static_cast<int>(i),
            i == 0 ? config.serve.seed
                   : harness::replicateSeed(config.serve.seed, i),
            warm);
        if (obs.metering()) {
            record.block = &blocks[i];
        }
    };
    records[0].reserve(shardRange(0).second);
    buildDevice(0, 0);
    warm = DeviceLoop(&records[0].front()).scheduler();
    forEachShard([&](std::size_t shard) {
        const auto [begin, end] = shardRange(shard);
        records[shard].reserve(end - begin);
        for (std::size_t i = std::max<std::size_t>(begin, 1); i < end; ++i) {
            buildDevice(shard, i);
        }
    });
    std::vector<DeviceLoop> devices;
    devices.reserve(n);
    for (std::vector<DeviceState> &shardRecords : records) {
        for (DeviceState &record : shardRecords) {
            devices.emplace_back(&record);
        }
    }
    sampleRss();

    std::vector<core::AutoScaleScheduler *> schedulers;
    if (learnerPolicy) {
        schedulers.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            schedulers.push_back(devices[i].scheduler());
        }
    }

    // --- The epoch loop: advance every device to the next virtual-time
    // barrier under a frozen contention snapshot, then build the next
    // snapshot from per-device usage and merge tables in device-index
    // order. Shards partition contiguous device ranges; nothing inside
    // an epoch crosses devices, so the partitioning is
    // output-invariant. ---
    SharedInfra infra(config.infra);
    std::vector<EpochUsage> usage(n);
    // Whether every device of a shard finished, per shard and epoch
    // (char, not vector<bool>: workers write neighbouring slots).
    std::vector<char> shardDone(shards);

    // --- Churn (DESIGN.md §17). The state machine advances on this
    // thread only, at barriers, in device-index order; its draws are
    // pure functions of (master seed, device, epoch), so the schedule
    // is identical for every shard layout. ---
    std::optional<ChurnProcess> churn;
    if (config.churn.enabled()) {
        churn.emplace(config.churn, config.serve.seed, n);
    }

    // Barrier-time fold of every device's replay-relevant state (plus
    // the churn machine), in device-index order — what the fleet
    // manifest stores and what a resumed replay must reproduce.
    std::int64_t epoch = 0;
    auto fleetStateDigest = [&]() {
        std::uint64_t digest = mixHash(0, static_cast<std::uint64_t>(epoch));
        for (std::size_t d = 0; d < n; ++d) {
            digest = mixHash(digest, devices[d].stateDigest());
        }
        if (churn) {
            for (const char c : churn->stateLine()) {
                digest = mixHash(digest, static_cast<unsigned char>(c));
            }
        }
        return digest;
    };
    auto writeManifest = [&](std::uint64_t stateDigest) {
        FleetManifest manifest;
        manifest.configDigest = configDigest;
        manifest.epoch = epoch;
        manifest.stateDigest = stateDigest;
        manifest.devices = config.devices;
        manifest.churnState = churn ? churn->stateLine() : "-";
        if (learnerPolicy) {
            manifest.hasTable = true;
            manifest.table = mergedQTableSnapshot(schedulers);
        }
        std::string error;
        if (!fleetCheckpoint->save(encodeFleetManifest(manifest), &error)) {
            fatal("fleet: checkpoint failed: " + error);
        }
        stats.checkpointsWritten = fleetCheckpoint->written();
    };

    SharedSnapshot snapshot = infra.snapshotFor(0.0, config.epochMs, {});
    double epochStartMs = 0.0;
    bool previousBrownout = false;
    bool previousOutage = false;
    while (true) {
        if (snapshot.brownout) {
            ++stats.brownoutEpochs;
            if (!previousBrownout) {
                ++stats.brownoutWindows;
            }
        }
        previousBrownout = snapshot.brownout;
        if (snapshot.edgeOutage) {
            ++stats.outageEpochs;
            if (!previousOutage) {
                ++stats.outageWindows;
            }
        }
        previousOutage = snapshot.edgeOutage;
        stats.maxEdgeQueueMs =
            std::max(stats.maxEdgeQueueMs, snapshot.edgeQueueMs);
        stats.minWifiDerate =
            std::min(stats.minWifiDerate, snapshot.wifiDerate);

        // Churn transitions happen at the barrier *entering* the epoch:
        // a crashed device loses its queue (and pending Q-update) now
        // and is offline for this epoch onward.
        if (churn) {
            const std::vector<ChurnEvent> &events =
                churn->beginEpoch(epoch);
            for (std::size_t d = 0; d < n; ++d) {
                switch (events[d]) {
                case ChurnEvent::Crash:
                    ++stats.churnCrashes;
                    devices[d].churnCrash(epoch);
                    break;
                case ChurnEvent::Leave:
                    ++stats.churnLeaves;
                    devices[d].churnLeave(epoch);
                    break;
                case ChurnEvent::Join:
                    ++stats.churnJoins;
                    break;
                case ChurnEvent::Rejoin:
                    ++stats.churnRejoins;
                    break;
                case ChurnEvent::None:
                    break;
                }
            }
            stats.offlineDeviceEpochs += churn->offlineCount();
        }

        // Each shard advances its devices and folds their barrier
        // bookkeeping as it goes: the epoch's usage, completion, and
        // churn retirement. All of it writes only the device's own
        // slots, so no serial pass over the fleet follows.
        const double barrierMs = epochStartMs + config.epochMs;
        auto advanceShard = [&](std::size_t shard) {
            const auto [begin, end] = shardRange(shard);
            bool allDone = true;
            for (std::size_t d = begin; d < end; ++d) {
                if (churn && !churn->active(d)) {
                    devices[d].advanceOffline(barrierMs, epoch);
                } else {
                    devices[d].advance(barrierMs, &snapshot, epoch);
                }
                usage[d] = devices[d].takeEpochUsage();
                const bool done = devices[d].done();
                if (done && churn) {
                    churn->retire(d);
                }
                allDone = allDone && done;
            }
            shardDone[shard] = allDone;
        };
        forEachShard(advanceShard);
        ++stats.epochs;
        const bool allDone =
            std::all_of(shardDone.begin(), shardDone.end(),
                        [](char done) { return done != 0; });

        if (schedulers.size() > 1
            && (config.qMode == QTableMode::Shared
                || (config.qMode == QTableMode::Federated
                    && (epoch + 1) % config.federatedMergeEpochs == 0))) {
            if (!churn) {
                mergeQTablesVisitWeighted(schedulers);
            } else {
                // Offline devices miss the merge; a rejoined device is
                // folded back in at the next barrier merge (the
                // "warm-start per --q-mode" rejoin semantics).
                std::vector<core::AutoScaleScheduler *> present;
                present.reserve(n);
                for (std::size_t d = 0; d < n; ++d) {
                    if (churn->active(d)) {
                        present.push_back(schedulers[d]);
                    }
                }
                mergeQTablesVisitWeighted(present);
            }
        }

        // --- Fleet checkpoint bookkeeping at the barrier (after the
        // merge, so the manifest's Q-table artifact is post-merge). ---
        const bool halting = config.haltAfterEpochs > 0
            && epoch + 1 >= config.haltAfterEpochs && !allDone;
        if (fleetCheckpoint) {
            if (epoch == resumeEpoch
                && fleetStateDigest() != resumeStateDigest) {
                fatal("fleet resume: replay diverged from '"
                      + fleetCheckpoint->path() + "' at epoch "
                      + std::to_string(epoch)
                      + "; the interrupted run's state cannot be"
                        " reproduced under this binary/config");
            }
            const bool due =
                (epoch + 1) % config.checkpointEveryEpochs == 0;
            if (epoch > resumeEpoch && (due || allDone || halting)) {
                writeManifest(fleetStateDigest());
            }
        }
        if (halting) {
            // Simulated crash: stop at the barrier without finalizing
            // devices or exporting anything (the manifest above is the
            // only survivor, exactly like a SIGKILL here).
            stats.halted = true;
            return stats;
        }

        sampleRss();
        if (allDone) {
            break;
        }
        snapshot = infra.snapshotFor(barrierMs, config.epochMs, usage);
        epochStartMs = barrierMs;
        ++epoch;
    }

    if (resumeEpoch >= 0 && epoch < resumeEpoch) {
        fatal("fleet resume: run completed at epoch "
              + std::to_string(epoch)
              + " before reaching the checkpoint epoch "
              + std::to_string(resumeEpoch)
              + "; the manifest does not belong to this configuration");
    }

    // --- Finish and free on the pool (DESIGN.md §18). Each shard task
    // finishes its devices, keeps their ServeStats, writes their
    // Q-table dumps when asked, and frees its device records, so the
    // results are gathered into FleetStats only once every record is
    // gone.
    //
    // A learner's finish may write its Q-table while another shard
    // frees tables that share its base. A table writes its base in
    // place only while it is the sole holder (core/qtable.h), so this
    // thread holds one more share of every shared base until the
    // tasks are done: their writes go to private rows, as they did
    // when every record outlived the finish. ---
    std::vector<core::QTable> baseKeepers;
    for (const core::AutoScaleScheduler *scheduler : schedulers) {
        const core::QTable &table = scheduler->agent().table();
        if (table.baseHolders() > 1
            && std::none_of(baseKeepers.begin(), baseKeepers.end(),
                            [&](const core::QTable &kept) {
                                return kept.baseId() == table.baseId();
                            })) {
            baseKeepers.push_back(table.baseShare());
        }
    }
    struct FinishedShard {
        FleetAggregate counts;
        std::vector<ServeStats> devices;
        std::string qtables;
    };
    std::vector<FinishedShard> finished(shards);
    const bool dumpQTables = config.collectQTables && learnerPolicy;
    forEachShard([&](std::size_t shard) {
        const auto [begin, end] = shardRange(shard);
        FinishedShard &out = finished[shard];
        FleetAggregate &counts = out.counts;
        out.devices.reserve(end - begin);
        for (std::size_t d = begin; d < end; ++d) {
            ServeStats device = devices[d].finish();
            counts.arrivals += device.arrivals;
            counts.served += device.served;
            counts.shed += device.shedOverflow + device.shedDeadline
                + device.shedStale;
            counts.shedChurn += device.shedChurn;
            counts.degraded += device.degraded;
            counts.qosViolations += device.qosViolations;
            out.devices.push_back(std::move(device));
        }
        if (dumpQTables) {
            std::ostringstream dump;
            for (std::size_t d = begin; d < end; ++d) {
                dump << "# device " << d << '\n';
                devices[d].scheduler()->saveQTable(dump);
            }
            out.qtables = dump.str();
        }
        // This shard's views dangle from here on; nothing reads them.
        std::vector<DeviceState>().swap(records[shard]);
    });
    baseKeepers.clear();
    devices.clear();
    schedulers.clear();

    // One serial pass in device-index order: shard totals, then each
    // device's checksum words, clock and floating-point totals (the
    // same arithmetic in the same order as a serial finish), moving
    // the kept stats into place and freeing each shard's buffers.
    stats.devices.reserve(n);
    std::uint64_t checksum = 0;
    for (FinishedShard &shard : finished) {
        const FleetAggregate &counts = shard.counts;
        stats.aggregate.arrivals += counts.arrivals;
        stats.aggregate.served += counts.served;
        stats.aggregate.shed += counts.shed;
        stats.aggregate.shedChurn += counts.shedChurn;
        stats.aggregate.degraded += counts.degraded;
        stats.aggregate.qosViolations += counts.qosViolations;
        for (ServeStats &device : shard.devices) {
            stats.endClockMs = std::max(stats.endClockMs, device.endClockMs);
            checksum = mixHash(checksum, device.rngFingerprint);
            checksum =
                mixHash(checksum, static_cast<std::uint64_t>(device.served));
            checksum = mixHash(checksum,
                               static_cast<std::uint64_t>(device.shedChurn));
            checksum = mixHashDouble(checksum, device.energyJ);
            checksum = mixHashDouble(checksum, device.endClockMs);
            stats.aggregate.energyJ += device.energyJ;
            stats.aggregate.wastedEnergyJ += device.wastedEnergyJ;
            stats.devices.push_back(std::move(device));
        }
        stats.qtableDump += shard.qtables;
        shard = FinishedShard{};
    }
    stats.checksum = checksum;
    sampleRss();

    if (obs.tracing()) {
        // A shard buffer interleaves its devices' events; a stable sort
        // by device id restores each device's record order, and shards
        // cover contiguous ascending device ranges, so the flushed
        // sequence is per-device streams appended in index order.
        for (obs::TraceRecorder &shardTrace : shardTraces) {
            std::vector<obs::DecisionEvent> events = shardTrace.snapshot();
            std::stable_sort(events.begin(), events.end(),
                             [](const obs::DecisionEvent &a,
                                const obs::DecisionEvent &b) {
                                 return a.deviceId < b.deviceId;
                             });
            for (obs::DecisionEvent &event : events) {
                obs.trace->record(std::move(event));
            }
        }
    }
    for (const CompactServeMetrics &block : blocks) {
        block.flush(*obs.metrics);
    }

    // Fleet-level resilience metrics, declared only when the feature is
    // configured so a churn-free/outage-free run's metric-name set (and
    // exported bytes) is unchanged.
    if (obs.metering() && churn) {
        obs.metrics->inc("serve.fleet.churn.crashes", stats.churnCrashes);
        obs.metrics->inc("serve.fleet.churn.leaves", stats.churnLeaves);
        obs.metrics->inc("serve.fleet.churn.joins", stats.churnJoins);
        obs.metrics->inc("serve.fleet.churn.rejoins", stats.churnRejoins);
        obs.metrics->inc("serve.fleet.churn.offline_device_epochs",
                         stats.offlineDeviceEpochs);
        obs.metrics->inc("serve.fleet.churn.shed", stats.aggregate.shedChurn);
    }
    if (obs.metering() && config.infra.outagePeriodMs > 0.0
        && config.infra.outageDurationMs > 0.0) {
        obs.metrics->inc("serve.fleet.outage_epochs", stats.outageEpochs);
        obs.metrics->inc("serve.fleet.outage_windows",
                         stats.outageWindows);
    }

    if (config.reportMemory) {
        stats.peakRssBytes = rssPeak;
        if (rssPeak > rssBaseline) {
            stats.bytesPerDevice =
                static_cast<double>(rssPeak - rssBaseline)
                / static_cast<double>(n);
        }
    }
    return stats;
}

void
printFleetReport(std::ostream &os, const FleetConfig &config,
                 const FleetStats &stats)
{
    printBanner(os, "Fleet summary");
    {
        Table table({"metric", "value"});
        table.addRow({"devices", std::to_string(config.devices)});
        table.addRow({"shards", std::to_string(fleetShardCount(config))});
        table.addRow({"q-mode", qTableModeName(config.qMode)});
        table.addRow({"epochs", std::to_string(stats.epochs)});
        table.addRow({"epoch (ms)", Table::num(config.epochMs)});
        const std::int64_t arrivals =
            std::max<std::int64_t>(1, stats.aggregate.arrivals);
        table.addRow({"arrivals", std::to_string(stats.aggregate.arrivals)});
        table.addRow(
            {"served",
             std::to_string(stats.aggregate.served) + " ("
                 + Table::pct(static_cast<double>(stats.aggregate.served)
                              / static_cast<double>(arrivals))
                 + ")"});
        table.addRow({"shed", std::to_string(stats.aggregate.shed)});
        if (config.churn.enabled()) {
            table.addRow({"shed (churn)",
                          std::to_string(stats.aggregate.shedChurn)});
        }
        table.addRow({"degraded", std::to_string(stats.aggregate.degraded)});
        table.addRow({"QoS violations (served)",
                      std::to_string(stats.aggregate.qosViolations)});
        const auto [p50, p99] = stats.latencyPercentilesMs(50.0, 99.0);
        table.addRow({"p50 latency (ms)", Table::num(p50)});
        table.addRow({"p99 latency (ms)", Table::num(p99)});
        table.addRow({"energy (J)", Table::num(stats.aggregate.energyJ, 3)});
        table.addRow({"wasted energy (J)",
                      Table::num(stats.aggregate.wastedEnergyJ, 3)});
        table.addRow({"virtual time (s)",
                      Table::num(stats.endClockMs / 1e3, 2)});
        if (stats.peakRssBytes > 0) {
            table.addRow(
                {"peak RSS (MiB)",
                 Table::num(static_cast<double>(stats.peakRssBytes)
                                / (1024.0 * 1024.0),
                            1)});
            table.addRow({"bytes / device",
                          Table::num(stats.bytesPerDevice, 0)});
        }
        if (config.devices > 1 && !config.serve.checkpointPath.empty()) {
            table.addRow({"fleet checkpoints written",
                          std::to_string(stats.checkpointsWritten)});
            std::string resumeCell = stats.resumed
                ? std::string(checkpointSourceName(stats.resumeSource))
                    + " @ epoch " + std::to_string(stats.resumeEpoch)
                : "no";
            if (stats.corruptCheckpoints > 0) {
                resumeCell += " (" + std::to_string(stats.corruptCheckpoints)
                    + " corrupt)";
            }
            table.addRow({"resumed from checkpoint", resumeCell});
        }
        table.print(os);
    }

    printBanner(os, "Shared infrastructure");
    {
        Table table({"metric", "value"});
        table.addRow({"edge capacity (slots)",
                      Table::num(config.infra.edgeCapacity)});
        table.addRow({"wifi capacity (transfers)",
                      Table::num(config.infra.wifiCapacity)});
        table.addRow({"contention multiplier",
                      Table::num(config.infra.contention)});
        table.addRow({"max edge queue delay (ms)",
                      Table::num(stats.maxEdgeQueueMs)});
        table.addRow({"min wifi derate",
                      Table::num(stats.minWifiDerate, 3)});
        table.addRow({"brownout epochs",
                      std::to_string(stats.brownoutEpochs)});
        table.addRow({"brownout windows",
                      std::to_string(stats.brownoutWindows)});
        if (config.infra.outagePeriodMs > 0.0
            && config.infra.outageDurationMs > 0.0) {
            table.addRow({"edge outage epochs",
                          std::to_string(stats.outageEpochs)});
            table.addRow({"edge outage windows",
                          std::to_string(stats.outageWindows)});
        }
        table.print(os);
    }

    if (config.churn.enabled()) {
        printBanner(os, "Device churn");
        Table table({"metric", "value"});
        table.addRow({"crash prob / epoch",
                      Table::num(config.churn.crashProb, 4)});
        table.addRow({"leave prob / epoch",
                      Table::num(config.churn.leaveProb, 4)});
        table.addRow({"down epochs",
                      std::to_string(config.churn.downEpochs)});
        table.addRow({"crashes", std::to_string(stats.churnCrashes)});
        table.addRow({"graceful leaves",
                      std::to_string(stats.churnLeaves)});
        table.addRow({"staggered joins",
                      std::to_string(stats.churnJoins)});
        table.addRow({"rejoins", std::to_string(stats.churnRejoins)});
        table.addRow({"offline device-epochs",
                      std::to_string(stats.offlineDeviceEpochs)});
        table.print(os);
    }
}

} // namespace autoscale::serve
