/**
 * @file
 * BatchDecisionEngine: an inert name kept so the benchmark's fleet
 * replay (perfbench/child.cpp) still builds. The serve loop makes one
 * decision per request and uses no engine (DESIGN.md §14). Delete
 * this header once ROADMAP item 2 has removed that replay.
 */

#ifndef AUTOSCALE_SIM_BATCH_ENGINE_H_
#define AUTOSCALE_SIM_BATCH_ENGINE_H_

#include <cstddef>

#include "sim/simulator.h"

namespace autoscale::sim {

/** Empty compatibility stub (see file comment). */
class BatchDecisionEngine {
  public:
    BatchDecisionEngine(const InferenceSimulator &, std::size_t) {}
};

} // namespace autoscale::sim

#endif // AUTOSCALE_SIM_BATCH_ENGINE_H_
