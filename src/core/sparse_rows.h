/**
 * @file
 * Rows of a states x actions matrix stored only for the states that
 * have one. A QTable keeps its private (copy-on-write) rows here and a
 * QLearningAgent its visit counts: a fleet device touches a few dozen
 * of the 3,072 states, so a dense matrix per device would be almost
 * entirely unused.
 */

#ifndef AUTOSCALE_CORE_SPARSE_ROWS_H_
#define AUTOSCALE_CORE_SPARSE_ROWS_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace autoscale::core {

/**
 * State-indexed rows of `width` values each. The index is a sorted
 * state list (binary search); rows live contiguously in insertion
 * order, so a row pointer stays valid only until the next insert().
 */
template <typename T>
class SparseRows {
  public:
    explicit SparseRows(int width) : width_(width) {}

    bool empty() const { return states_.empty(); }

    /** States that have a row, ascending. */
    const std::vector<int> &states() const { return states_; }

    /** Row of @p state, or null when it has none. */
    const T *
    find(int state) const
    {
        const std::size_t pos = lowerBound(state);
        if (pos == states_.size() || states_[pos] != state) {
            return nullptr;
        }
        return rowAt(slots_[pos]);
    }

    T *
    find(int state)
    {
        return const_cast<T *>(std::as_const(*this).find(state));
    }

    /**
     * Row of @p state; when it has none, append one holding a copy of
     * @p init (width values), or zeros when @p init is null.
     */
    T *
    insert(int state, const T *init)
    {
        const std::size_t pos = lowerBound(state);
        if (pos < states_.size() && states_[pos] == state) {
            return rowAt(slots_[pos]);
        }
        const std::size_t slot = states_.size();
        states_.insert(states_.begin() + static_cast<std::ptrdiff_t>(pos),
                       state);
        slots_.insert(slots_.begin() + static_cast<std::ptrdiff_t>(pos),
                      slot);
        if (init != nullptr) {
            values_.insert(values_.end(), init, init + width_);
        } else {
            values_.resize(values_.size()
                           + static_cast<std::size_t>(width_));
        }
        return rowAt(slot);
    }

    /** Drop every row, keeping the storage for the rows to come (a
     * fleet device refills its rows after every merge). */
    void
    clear()
    {
        states_.clear();
        slots_.clear();
        values_.clear();
    }

  private:
    /**
     * Position of the first state >= @p state. Branch-free: a learner
     * looks rows up on every update, with no pattern a branch
     * predictor could follow.
     */
    std::size_t
    lowerBound(int state) const
    {
        if (states_.empty()) {
            return 0;
        }
        const int *base = states_.data();
        std::size_t length = states_.size();
        while (length > 1) {
            const std::size_t half = length / 2;
            base = base[half] < state ? base + half : base;
            length -= half;
        }
        return static_cast<std::size_t>(base - states_.data())
            + (*base < state ? 1 : 0);
    }

    T *
    rowAt(std::size_t slot)
    {
        return values_.data() + slot * static_cast<std::size_t>(width_);
    }

    const T *
    rowAt(std::size_t slot) const
    {
        return values_.data() + slot * static_cast<std::size_t>(width_);
    }

    int width_;
    std::vector<int> states_;
    std::vector<std::size_t> slots_;
    std::vector<T> values_;
};

} // namespace autoscale::core

#endif // AUTOSCALE_CORE_SPARSE_ROWS_H_
