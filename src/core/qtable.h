/**
 * @file
 * Q-table: the value function Q(S, A) of the paper's Q-learning
 * formulation, a states x actions matrix of floats. The paper chose
 * Q-learning specifically because a lookup table keeps the runtime
 * overhead in the microsecond range (Section IV, "Low Latency
 * Overhead"); the overhead benchmark measures exactly these lookups.
 *
 * Storage is copy-on-write (DESIGN.md §15). A table reads through one
 * refcounted dense base, except at the states where it holds a private
 * row (one state's numActions floats). A table that is the only holder
 * of its base writes into it in place, which is the dense layout every
 * single-device run keeps. Tables made with share() hold the same base,
 * and a write to a row of a shared base first copies that row, so a
 * fleet of learners warm-started from one table costs one base plus
 * the rows each device has written since the last merge.
 *
 * Thread safety: several tables sharing one base may be read and
 * written concurrently (each write touches only its own table's
 * rows). Anything that changes who holds a base — share(), rebase(),
 * copy, assignment, destruction — must not run concurrently with other
 * tables of that base; fleets do it only at epoch barriers.
 */

#ifndef AUTOSCALE_CORE_QTABLE_H_
#define AUTOSCALE_CORE_QTABLE_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/sparse_rows.h"
#include "util/logging.h"
#include "util/rng.h"

namespace autoscale::core {

/** State x action value table over a copy-on-write base. */
class QTable {
  public:
    /** Zero-initialized table that owns its base. */
    QTable(int numStates, int numActions);

    /** Independent copy: a dense base of its own holding @p other's
     * values, with no private rows. */
    QTable(const QTable &other);
    QTable &operator=(const QTable &other);
    QTable(QTable &&) noexcept = default;
    QTable &operator=(QTable &&) noexcept = default;

    /**
     * A table that reads exactly like this one without copying its
     * base: it holds the same base and copies of this table's private
     * rows. Later writes to either table copy the rows they touch.
     */
    QTable share() const;

    int numStates() const { return numStates_; }
    int numActions() const { return numActions_; }

    /** Initialize every entry uniformly in [lo, hi) (Algorithm 1);
     * afterwards the table owns a dense base with no private rows. */
    void randomize(Rng &rng, double lo = 0.0, double hi = 1.0);

    /** Q(S, A). */
    float
    at(int state, int action) const
    {
        checkAction(action);
        return row(state)[action];
    }

    /**
     * Mutable Q(S, A); copies the row first if the base is shared, so
     * read a shared table through a const reference.
     */
    float &
    at(int state, int action)
    {
        checkAction(action);
        return mutableRow(state)[action];
    }

    /** The numActions values of @p state: its private row, else the
     * base's. */
    const float *
    row(int state) const
    {
        if (!private_.empty()) {
            if (const float *own = private_.find(state)) {
                return own;
            }
        }
        return baseRow(state);
    }

    /**
     * Writable row of @p state. Valid until the next write to another
     * row of this table (a copy may move the private rows).
     */
    float *mutableRow(int state);

    /** Action with the largest Q(S, A); ties break to the lowest id. */
    int bestAction(int state) const;

    /** max_A Q(S, A). */
    double maxValue(int state) const;

    /**
     * Logical payload size in bytes: states x actions floats, the
     * Section VI-C memory-footprint figure, however the rows are
     * stored.
     */
    std::size_t memoryBytes() const;

    // --- Copy-on-write structure, read by the fleet's visit-weighted
    // merge (serve/fleet.h). ---

    /** Identity of the base this table reads through. */
    const void *baseId() const { return base_.get(); }

    /** Row @p state of the base, ignoring any private row. */
    const float *
    baseRow(int state) const
    {
        checkState(state);
        return base_->data()
            + static_cast<std::size_t>(state)
            * static_cast<std::size_t>(numActions_);
    }

    /** States where this table holds a private row, ascending. */
    const std::vector<int> &privateStates() const
    {
        return private_.states();
    }

    /** A table over a copy of this table's base alone (private rows
     * left out), owning it. */
    QTable baseCopy() const;

    /** Drop every private row and read through @p source's base
     * (its private rows are not taken). */
    void rebase(const QTable &source);

    /** Serialize as text (dimensions then row-major values). */
    void save(std::ostream &os) const;

    /** Deserialize from text; fatal() on malformed input. */
    static QTable load(std::istream &is);

  private:
    QTable(int numStates, int numActions,
           std::shared_ptr<std::vector<float>> base);

    void
    checkState(int state) const
    {
        AS_CHECK(state >= 0 && state < numStates_);
    }

    void
    checkAction(int action) const
    {
        AS_CHECK(action >= 0 && action < numActions_);
    }

    int numStates_;
    int numActions_;
    /** Dense numStates x numActions values; written in place only
     * while this table is its sole holder. */
    std::shared_ptr<std::vector<float>> base_;
    SparseRows<float> private_;
};

/** Convert an IEEE-754 float to a half-precision bit pattern
 * (round-to-nearest-even, with overflow to infinity). */
std::uint16_t floatToHalf(float value);

/** Convert a half-precision bit pattern back to float. */
float halfToFloat(std::uint16_t bits);

/**
 * Half-precision packed Q-table for deployment: Q-values span a few
 * thousand millijoule-scale rewards, well inside half range, and the
 * ~0.1% quantization error is far below the measurement noise. A
 * 3,072 x 66 packed table occupies ~0.39 MB — the paper's Section VI-C
 * "0.4 MB" memory requirement.
 */
class PackedQTable {
  public:
    /** Quantize @p table to half precision. */
    explicit PackedQTable(const QTable &table);

    int numStates() const { return numStates_; }
    int numActions() const { return numActions_; }

    /** Dequantized Q(S, A). */
    float at(int state, int action) const;

    /** Action with the largest packed Q(S, A). */
    int bestAction(int state) const;

    /** Expand back into a full-precision table. */
    QTable unpack() const;

    /** Payload size in bytes. */
    std::size_t memoryBytes() const;

  private:
    std::size_t index(int state, int action) const;

    int numStates_;
    int numActions_;
    std::vector<std::uint16_t> values_;
};

} // namespace autoscale::core

#endif // AUTOSCALE_CORE_QTABLE_H_
