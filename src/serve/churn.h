/**
 * @file
 * Device churn for fleet serving (DESIGN.md §17): a seeded process
 * that crashes, gracefully removes, rejoins, and staggered-joins fleet
 * devices at epoch barriers.
 *
 * Determinism contract: every churn draw is a pure function of
 * (master seed, device index, epoch) — a fresh hash-seeded Rng per
 * draw, never a long-lived stream — so the schedule is independent of
 * shard layout, job count, and anything the devices do. The state
 * machine itself advances only on the fleet's main thread, once per
 * epoch, in device-index order; replaying epochs 0..k (the fleet
 * resume path) reproduces it exactly.
 *
 * Lifecycle per device:
 *
 *   Waiting --join--> Active --crash/leave--> Offline --rejoin--> Active
 *
 * A crash discards the device's queued requests and in-flight learning
 * transition; a leave discards the queue but flushes learning cleanly.
 * Offline devices still consume their arrival stream (every arrival is
 * lost as `shed_churn`), keeping fleet virtual time and the workload
 * RNG in lockstep. Devices that finish their run are retired: no
 * further draws, no further events.
 */

#ifndef AUTOSCALE_SERVE_CHURN_H_
#define AUTOSCALE_SERVE_CHURN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace autoscale::serve {

/** Declarative churn schedule knobs (CLI / [churn] scenario section). */
struct ChurnConfig {
    /** Per-(device, epoch) hard-crash probability, in [0, 1]. */
    double crashProb = 0.0;
    /** Per-(device, epoch) graceful-leave probability, in [0, 1]. */
    double leaveProb = 0.0;
    /** Epochs a crashed/left device stays offline before rejoining. */
    int downEpochs = 4;
    /**
     * Devices active at epoch 0; 0 (or >= fleet size) means the whole
     * fleet starts active. The remainder joins one device every
     * `joinEveryEpochs` epochs, in device-index order.
     */
    int initialDevices = 0;
    /** Barrier period of the staggered join schedule (>= 1 when used). */
    int joinEveryEpochs = 1;

    /** Whether any churn behavior is configured at all. */
    bool enabled() const
    {
        return crashProb > 0.0 || leaveProb > 0.0 || initialDevices > 0;
    }
};

/** What the churn process did to one device at an epoch barrier. */
enum class ChurnEvent {
    None,   ///< No state change.
    Crash,  ///< Active -> Offline, queue + pending update lost.
    Leave,  ///< Active -> Offline, queue lost, learning flushed.
    Join,   ///< Waiting -> Active (staggered first join).
    Rejoin, ///< Offline -> Active (downEpochs elapsed).
};

/** Seeded per-device churn state machines for one fleet run. */
class ChurnProcess {
  public:
    /**
     * @param config Validated churn knobs (probabilities in [0, 1],
     *        crashProb + leaveProb <= 1, downEpochs >= 1).
     * @param masterSeed The fleet's master seed; draws hash it with
     *        (device, epoch).
     * @param devices Fleet size.
     */
    ChurnProcess(const ChurnConfig &config, std::uint64_t masterSeed,
                 std::size_t devices);

    /**
     * Advance every device's state machine across the barrier into
     * @p epoch. Must be called once per epoch, in increasing epoch
     * order, on one thread. Returns per-device events in device-index
     * order (valid until the next call).
     */
    const std::vector<ChurnEvent> &beginEpoch(std::int64_t epoch);

    /** Whether device @p device serves during the current epoch. */
    bool active(std::size_t device) const;

    /** Devices currently offline or waiting (excludes retired). */
    std::int64_t offlineCount() const;

    /**
     * Stop churning @p device (its run completed). Retired devices are
     * considered active (their DeviceLoop::advance is a no-op) and
     * draw no further events. Writes only @p device's state, so the
     * fleet's shard workers retire their own devices concurrently.
     */
    void retire(std::size_t device);

    /**
     * One line per device describing the current state ("A", "R",
     * "W<joinEpoch>", or "O<remaining>"), for the fleet checkpoint
     * manifest's state digest and for tests.
     */
    std::string stateLine() const;

  private:
    enum class Phase { Waiting, Active, Offline, Retired };

    struct DeviceState {
        Phase phase = Phase::Active;
        /** Epochs left offline (Offline) / join epoch (Waiting). */
        std::int64_t counter = 0;
    };

    ChurnConfig config_;
    std::uint64_t seed_;
    std::vector<DeviceState> states_;
    std::vector<ChurnEvent> events_;
    std::int64_t lastEpoch_ = -1;
};

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_CHURN_H_
