/**
 * @file
 * O(1) stream jumping for xoshiro256** (DESIGN.md §18). The
 * generator's state transition T is linear over GF(2), so "advance by N
 * draws" is T^N. With P the characteristic polynomial of T (degree
 * 256), T^N = J(T) where J(x) = x^N mod P(x). RngJump finds P by
 * Berlekamp–Massey on 512 bits of one state bit, computes J by
 * square-and-multiply on 256-bit polynomials, and applies J(T) to any
 * generator by Horner's rule: 256 state steps and conditional XORs.
 * A caller that applies one jump many times can expand it into the
 * 256 x 256 bit matrix J(T) once, after which an apply is one
 * conditional XOR of a 256-bit column per set state bit.
 * A warm-started QLearningAgent (a fleet peer, core/agent.h) uses it to
 * land its RNG exactly where it would be after randomizing its Q-table
 * (one draw per cell), without paying those draws for a table it
 * shares instead.
 */

#ifndef AUTOSCALE_UTIL_RNG_JUMP_H_
#define AUTOSCALE_UTIL_RNG_JUMP_H_

#include <array>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace autoscale::util {

/** Precomputed "advance by N next() calls" operator for Rng. */
class RngJump {
  public:
    /** Build x^steps mod P. Cost: microseconds, O(log2(steps)). */
    explicit RngJump(std::uint64_t steps);

    /**
     * The same jump with J(T) expanded into its matrix columns (8 KB).
     * Building it takes about as long as 250 polynomial applies; each
     * apply after it takes about a third of one.
     */
    RngJump expanded() const;

    /** Advance @p rng by the precomputed step count, output-free. */
    void apply(Rng &rng) const;

    std::uint64_t steps() const { return steps_; }

  private:
    std::uint64_t steps_;
    /** x^steps mod P over GF(2); bit i is the coefficient of x^i. */
    std::array<std::uint64_t, 4> jump_;
    /** J(T) e_i for state bit i, or empty when not expanded. */
    std::vector<std::array<std::uint64_t, 4>> columns_;
};

} // namespace autoscale::util

#endif // AUTOSCALE_UTIL_RNG_JUMP_H_
