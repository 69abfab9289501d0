/**
 * @file
 * O(1) stream jumping for xoshiro256** (DESIGN.md §18). The
 * generator's state transition is linear over GF(2), so "advance by N
 * draws" is multiplication by a fixed 256x256 bit matrix T^N. RngJump
 * precomputes that matrix once (square-and-multiply over the 256 basis
 * images, ~log2(N) compositions) and then applies it to any generator
 * in at most 256 conditional XORs. A warm-started QLearningAgent (a
 * fleet peer, core/agent.h) uses it to land its RNG exactly where it
 * would be after randomizing its Q-table (one draw per cell), without
 * paying those draws for a table it shares instead.
 */

#ifndef AUTOSCALE_UTIL_RNG_JUMP_H_
#define AUTOSCALE_UTIL_RNG_JUMP_H_

#include <array>
#include <cstdint>

#include "util/rng.h"

namespace autoscale::util {

/** Precomputed "advance by N next() calls" operator for Rng. */
class RngJump {
  public:
    /** Build T^steps. Cost: O(log2(steps)) 256x256 bit-matrix squares. */
    explicit RngJump(std::uint64_t steps);

    /** Advance @p rng by the precomputed step count, output-free. */
    void apply(Rng &rng) const;

    std::uint64_t steps() const { return steps_; }

  private:
    /** Column-major over basis vectors: image of basis bit i. */
    using Matrix = std::array<std::array<std::uint64_t, 4>, 256>;

    static Matrix identity();
    static Matrix multiply(const Matrix &lhs, const Matrix &rhs);

    std::uint64_t steps_;
    Matrix matrix_;
};

} // namespace autoscale::util

#endif // AUTOSCALE_UTIL_RNG_JUMP_H_
