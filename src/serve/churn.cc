#include "serve/churn.h"

#include "util/hash_mix.h"
#include "util/logging.h"
#include "util/rng.h"

namespace autoscale::serve {

namespace {

/**
 * The seed of the one-shot Rng behind a device's draw for one epoch —
 * a pure function of (master seed, device, epoch), so the schedule
 * never depends on shard layout or device behavior.
 */
std::uint64_t
drawSeed(std::uint64_t masterSeed, std::size_t device, std::int64_t epoch)
{
    std::uint64_t hash = mixHash(0x636875726e2d7631ULL, masterSeed);
    hash = mixHash(hash, static_cast<std::uint64_t>(device));
    hash = mixHash(hash, static_cast<std::uint64_t>(epoch));
    return hash;
}

} // namespace

ChurnProcess::ChurnProcess(const ChurnConfig &config,
                           std::uint64_t masterSeed, std::size_t devices)
    : config_(config), seed_(masterSeed), states_(devices),
      events_(devices, ChurnEvent::None)
{
    AS_CHECK(config_.crashProb >= 0.0 && config_.crashProb <= 1.0);
    AS_CHECK(config_.leaveProb >= 0.0 && config_.leaveProb <= 1.0);
    AS_CHECK(config_.crashProb + config_.leaveProb <= 1.0);
    AS_CHECK(config_.downEpochs >= 1);
    AS_CHECK(config_.initialDevices >= 0);
    AS_CHECK(config_.joinEveryEpochs >= 1);

    // Staggered joins: the first `initialDevices` devices are active
    // from epoch 0; device i >= initialDevices joins at epoch
    // (i - initialDevices + 1) * joinEveryEpochs.
    const std::size_t initial =
        config_.initialDevices == 0
            ? devices
            : static_cast<std::size_t>(config_.initialDevices);
    for (std::size_t i = 0; i < devices; ++i) {
        if (i >= initial) {
            states_[i].phase = Phase::Waiting;
            states_[i].counter = static_cast<std::int64_t>(i - initial + 1)
                * config_.joinEveryEpochs;
        }
    }
}

const std::vector<ChurnEvent> &
ChurnProcess::beginEpoch(std::int64_t epoch)
{
    AS_CHECK(epoch == lastEpoch_ + 1);
    lastEpoch_ = epoch;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        DeviceState &state = states_[i];
        events_[i] = ChurnEvent::None;
        switch (state.phase) {
        case Phase::Retired:
            break;
        case Phase::Waiting:
            if (epoch >= state.counter) {
                state.phase = Phase::Active;
                events_[i] = ChurnEvent::Join;
            }
            break;
        case Phase::Offline:
            if (--state.counter <= 0) {
                state.phase = Phase::Active;
                events_[i] = ChurnEvent::Rejoin;
            }
            break;
        case Phase::Active:
            if (config_.crashProb > 0.0 || config_.leaveProb > 0.0) {
                Rng rng(drawSeed(seed_, i, epoch));
                const double u = rng.uniform();
                if (u < config_.crashProb) {
                    state.phase = Phase::Offline;
                    state.counter = config_.downEpochs;
                    events_[i] = ChurnEvent::Crash;
                } else if (u < config_.crashProb + config_.leaveProb) {
                    state.phase = Phase::Offline;
                    state.counter = config_.downEpochs;
                    events_[i] = ChurnEvent::Leave;
                }
            }
            break;
        }
    }
    return events_;
}

bool
ChurnProcess::active(std::size_t device) const
{
    const Phase phase = states_[device].phase;
    return phase == Phase::Active || phase == Phase::Retired;
}

std::int64_t
ChurnProcess::offlineCount() const
{
    std::int64_t count = 0;
    for (const DeviceState &state : states_) {
        if (state.phase == Phase::Offline || state.phase == Phase::Waiting) {
            ++count;
        }
    }
    return count;
}

void
ChurnProcess::retire(std::size_t device)
{
    states_[device].phase = Phase::Retired;
    states_[device].counter = 0;
}

std::string
ChurnProcess::stateLine() const
{
    std::string line;
    for (const DeviceState &state : states_) {
        if (!line.empty()) {
            line += ' ';
        }
        switch (state.phase) {
        case Phase::Active:
            line += 'A';
            break;
        case Phase::Retired:
            line += 'R';
            break;
        case Phase::Waiting:
            line += 'W' + std::to_string(state.counter);
            break;
        case Phase::Offline:
            line += 'O' + std::to_string(state.counter);
            break;
        }
    }
    return line;
}

} // namespace autoscale::serve
