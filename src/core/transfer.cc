#include "core/transfer.h"

#include <cmath>
#include <limits>

#include "util/logging.h"

namespace autoscale::core {

namespace {

/** Normalized V/F position of an action in [0, 1]. */
double
vfFraction(const sim::ExecutionTarget &action,
           const sim::InferenceSimulator &sim)
{
    const platform::Device &device = sim.deviceAt(action.place);
    const platform::Processor *proc = device.processor(action.proc);
    AS_CHECK(proc != nullptr);
    if (proc->numVfSteps() <= 1) {
        return 1.0;
    }
    return static_cast<double>(action.vfIndex)
        / static_cast<double>(proc->maxVfIndex());
}

} // namespace

std::vector<int>
matchActions(const std::vector<sim::ExecutionTarget> &srcActions,
             const sim::InferenceSimulator &srcSim,
             const std::vector<sim::ExecutionTarget> &dstActions,
             const sim::InferenceSimulator &dstSim)
{
    std::vector<int> match(dstActions.size(), -1);
    for (std::size_t d = 0; d < dstActions.size(); ++d) {
        const auto &dst = dstActions[d];
        const double dst_frac = vfFraction(dst, dstSim);
        double best_gap = std::numeric_limits<double>::infinity();
        for (std::size_t s = 0; s < srcActions.size(); ++s) {
            const auto &src = srcActions[s];
            if (src.place != dst.place || src.proc != dst.proc
                || src.precision != dst.precision) {
                continue;
            }
            const double gap =
                std::fabs(vfFraction(src, srcSim) - dst_frac);
            if (gap < best_gap) {
                best_gap = gap;
                match[d] = static_cast<int>(s);
            }
        }
    }
    return match;
}

void
transferQTable(const QTable &src,
               const std::vector<sim::ExecutionTarget> &srcActions,
               const sim::InferenceSimulator &srcSim, QTable &dst,
               const std::vector<sim::ExecutionTarget> &dstActions,
               const sim::InferenceSimulator &dstSim)
{
    AS_CHECK(src.numStates() == dst.numStates());
    AS_CHECK(src.numActions() == static_cast<int>(srcActions.size()));
    AS_CHECK(dst.numActions() == static_cast<int>(dstActions.size()));

    const std::vector<int> match =
        matchActions(srcActions, srcSim, dstActions, dstSim);
    for (int s = 0; s < dst.numStates(); ++s) {
        const float *from = src.row(s);
        float *to = dst.mutableRow(s);
        for (int a = 0; a < dst.numActions(); ++a) {
            if (match[static_cast<std::size_t>(a)] >= 0) {
                to[a] = from[match[static_cast<std::size_t>(a)]];
            }
        }
    }
}

} // namespace autoscale::core
