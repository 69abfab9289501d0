/**
 * @file
 * Crash-safe fleet checkpointing (DESIGN.md §17). A fleet manifest is
 * a small self-validating text file written at epoch barriers:
 *
 *   autoscale-fleet-checkpoint v1 <config-digest> <epoch> <state-digest>
 *   devices <n>
 *   churn <state line | ->
 *   qtable <merged visit-weighted Q-table | ->
 *   crc32 <8 hex digits>
 *
 * Resume is *checkpoint-verified deterministic replay*: a fleet's
 * mid-run state (per-device queues, RNG stream positions, breaker
 * windows, EWMA estimators, latency vectors, in-memory trace buffers)
 * is far larger than its outputs and cannot be serialized at a useful
 * cost, but the whole run is a pure function of its config. `--resume`
 * therefore rebuilds the fleet, replays epochs 0..k at full speed, and
 * uses the manifest to *verify* — via the config digest before the run
 * and the state digest at barrier k — that the replay is the same
 * trajectory the crashed run was on, then continues. Final stats,
 * traces, metrics, and Q-dumps are byte-identical to the uninterrupted
 * run by construction. The merged Q-table rides along as a recoverable
 * artifact (a fleet-wide warm-start table as of barrier k), not as
 * resume state.
 *
 * The manifest is a checkpoint file (serve/checkpoint.h): the same
 * CRC-sealed, classic-locale envelope, kept in the same rotating
 * CheckpointManager store (`runFleet` loads it with
 * decodeFleetManifest), so recovery after SIGKILL finds the newest
 * complete manifest or the one before it, never a torn file. Only the
 * header and sections above are its own. Decoding never fatal()s.
 */

#ifndef AUTOSCALE_SERVE_FLEET_CHECKPOINT_H_
#define AUTOSCALE_SERVE_FLEET_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "core/qtable.h"
#include "serve/checkpoint.h"

namespace autoscale::serve {

struct FleetConfig;

/** Decoded fleet manifest payload. */
struct FleetManifest {
    /** Digest of the replay-relevant FleetConfig fields. */
    std::uint64_t configDigest = 0;
    /** Last fleet epoch completed before the manifest was written. */
    std::int64_t epoch = 0;
    /** Fleet state digest at that epoch's barrier. */
    std::uint64_t stateDigest = 0;
    /** Fleet size. */
    int devices = 0;
    /** ChurnProcess::stateLine() at the barrier; "-" without churn. */
    std::string churnState = "-";
    /** Whether a merged Q-table section is present. */
    bool hasTable = false;
    /** Visit-weighted merged fleet Q-table as of the barrier. */
    core::QTable table{1, 1};
};

/**
 * Digest of every FleetConfig field that replay determinism depends on
 * (seed, request count, epoch geometry, q-mode, infrastructure, churn
 * schedule, ...). Resuming under a different digest is refused: the
 * replayed trajectory would not be the one the manifest describes.
 */
std::uint64_t fleetConfigDigest(const FleetConfig &config);

/** Serialize a manifest (header + sections + CRC footer). */
std::string encodeFleetManifest(const FleetManifest &manifest);

/**
 * Parse and validate @p bytes. Returns false with @p error set instead
 * of fatal()ing — corrupt manifests are expected on the recovery path.
 */
bool decodeFleetManifest(const std::string &bytes, FleetManifest *out,
                         std::string *error);

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_FLEET_CHECKPOINT_H_
