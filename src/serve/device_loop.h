/**
 * @file
 * DeviceLoop: one device's online serving loop, factored out of
 * `runServe` so a fleet can drive many of them through a shared
 * virtual-time event loop (DESIGN.md §15).
 *
 * The loop is *epoch-sliceable*: `advance(untilMs, shared, epoch)`
 * runs the exact serving loop of DESIGN.md §12 but pauses at the
 * virtual-time barrier `untilMs`, optionally applying a frozen
 * contention snapshot to remote service times. Calling
 * `advance(+inf, nullptr, 0)` once replays the original single-device
 * `runServe` byte for byte — same RNG streams, same commit order, same
 * stats, traces, metrics, and checkpoints — which is exactly what
 * `runServe` now does.
 *
 * Contention neutrality: with `shared == nullptr` the contention code
 * is skipped entirely; with a neutral snapshot (edgeQueueMs == 0.0,
 * wifiDerate == 1.0, no brownout) the applied arithmetic consists of
 * IEEE-754 identities, so a fleet of one device is bit-identical to
 * `runServe` as well (tests/test_fleet pins both).
 */

#ifndef AUTOSCALE_SERVE_DEVICE_LOOP_H_
#define AUTOSCALE_SERVE_DEVICE_LOOP_H_

#include <cstdint>
#include <memory>

#include "obs/trace_recorder.h"
#include "serve/server.h"
#include "serve/shared_infra.h"

namespace autoscale::core {
class AutoScaleScheduler;
} // namespace autoscale::core

namespace autoscale::serve {

struct DeviceState;

/**
 * One device's serving loop, advanceable in virtual-time slices.
 *
 * A thin view over a DeviceState record (DESIGN.md §18): standalone
 * construction owns a private record, while a fleet stores all its
 * records in one contiguous array and hands each loop a non-owning
 * pointer. Either way the loop body is the same code over the same
 * state.
 */
class DeviceLoop {
  public:
    /**
     * @param sim Shared read-only simulator (outlives the loop).
     * @param config Per-device serving configuration (seed included).
     * @param obs Sinks this device records into: trace events as they
     *        happen, metrics from its own block when finish() runs.
     * @param deviceId Fleet device index; -1 (the default) means
     *        "not a fleet member": no fleet trace fields,
     *        byte-identical to the pre-fleet serving loop.
     * @param warmStart Non-null: skip this device's own Q-table
     *        provenance (checkpoint/--qtable/pre-training) and seed the
     *        learner from an already-trained scheduler instead (the
     *        fleet trains device 0 once and transfers). Ignored for
     *        fixed baseline policies.
     */
    DeviceLoop(const sim::InferenceSimulator &sim, const ServeConfig &config,
               const obs::ObsContext &obs, int deviceId = -1,
               const core::AutoScaleScheduler *warmStart = nullptr);

    /**
     * Non-owning view over a fleet-owned record (device_state.h). The
     * record must outlive the view and stay at a stable address.
     */
    explicit DeviceLoop(DeviceState *state);

    ~DeviceLoop();

    DeviceLoop(DeviceLoop &&) noexcept;
    DeviceLoop &operator=(DeviceLoop &&) noexcept;
    DeviceLoop(const DeviceLoop &) = delete;
    DeviceLoop &operator=(const DeviceLoop &) = delete;

    /**
     * Run the serving loop until the virtual clock reaches @p untilMs
     * (or the run completes). @p shared is the frozen contention
     * snapshot for this epoch (nullptr = uncontended single-device
     * semantics); @p epoch is recorded on trace events in fleet mode.
     */
    void advance(double untilMs, const SharedSnapshot *shared,
                 std::int64_t epoch);

    /** Whether every arrival has been admitted and drained. */
    bool done() const;

    /** Current admission-queue depth. */
    std::size_t queueDepth() const;

    /**
     * Non-destructive digest of the loop's replay-relevant state
     * (virtual clock, arrival/serve counters, energy, queue depth) for
     * the fleet checkpoint manifest's barrier verification. Stable
     * across shard layouts; changes on any trajectory divergence.
     */
    std::uint64_t stateDigest() const;

    /**
     * Churn (DESIGN.md §17): the device crashed at an epoch barrier.
     * Discards every queued request as `shed_churn` and drops the
     * learner's pending Q-update (the in-flight transition dies with
     * the process). Returns the number of requests discarded.
     */
    std::int64_t churnCrash(std::int64_t epoch);

    /**
     * Churn: the device left gracefully at an epoch barrier. Discards
     * the queue as `shed_churn` (users are routed elsewhere) but
     * flushes the pending Q-update terminally, like a clean shutdown.
     * Returns the number of requests discarded.
     */
    std::int64_t churnLeave(std::int64_t epoch);

    /**
     * Churn: advance an offline device to the barrier @p untilMs. Every
     * arrival in the window is drawn (keeping the workload stream in
     * lockstep with fleet virtual time) but lost as `shed_churn`, and
     * the virtual clock jumps to the barrier. Returns arrivals lost.
     */
    std::int64_t advanceOffline(double untilMs, std::int64_t epoch);

    /** Current virtual clock, ms. */
    double clockMs() const;

    /** Contention-relevant usage since the last take (resets). */
    EpochUsage takeEpochUsage();

    /**
     * The learner's scheduler (nullptr for fixed baseline policies).
     * The fleet uses it for warm starts and barrier Q-table merges;
     * merges must only happen at epoch barriers, never mid-advance.
     */
    core::AutoScaleScheduler *scheduler();
    const core::AutoScaleScheduler *scheduler() const;

    /**
     * Finalize the run (pending Q-update flush, breaker finalization,
     * final checkpoint, closing metrics) and return the stats. Must be
     * called exactly once, after done().
     */
    ServeStats finish();

  private:
    /** Owned record (standalone ctor only; null for fleet views). */
    std::unique_ptr<DeviceState> owned_;
    DeviceState *state_;
};

} // namespace autoscale::serve

#endif // AUTOSCALE_SERVE_DEVICE_LOOP_H_
