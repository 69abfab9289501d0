#include "core/qtable.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <iomanip>
#include <istream>
#include <locale>
#include <ostream>
#include <utility>

#include "util/logging.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace autoscale::core {

int
firstMaxIndex(const float *values, int count)
{
#if defined(__SSE2__)
    // The scalar scan keeps values[0] when it is NaN, since nothing
    // compares greater than NaN.
    if (!(values[0] == values[0])) {
        return 0;
    }
    // The last four values; a row shorter than four is padded with
    // values[0], which can only match where values[0] already did.
    int tailAt = 0;
    __m128 tail;
    if (count >= 4) {
        tailAt = count - 4;
        tail = _mm_loadu_ps(values + tailAt);
    } else {
        tail = _mm_setr_ps(values[0], values[count > 1 ? 1 : 0],
                           values[count > 2 ? 2 : 0], values[0]);
    }
    // _mm_max_ps(x, acc) returns acc when x is NaN, so starting from
    // values[0] the accumulators skip NaNs as the scalar scan does.
    __m128 m0 = _mm_max_ps(tail, _mm_set1_ps(values[0]));
    __m128 m1 = m0;
    __m128 m2 = m0;
    __m128 m3 = m0;
    int i = 0;
    for (; i + 16 <= count; i += 16) {
        m0 = _mm_max_ps(_mm_loadu_ps(values + i), m0);
        m1 = _mm_max_ps(_mm_loadu_ps(values + i + 4), m1);
        m2 = _mm_max_ps(_mm_loadu_ps(values + i + 8), m2);
        m3 = _mm_max_ps(_mm_loadu_ps(values + i + 12), m3);
    }
    for (; i + 4 <= count; i += 4) {
        m0 = _mm_max_ps(_mm_loadu_ps(values + i), m0);
    }
    __m128 best = _mm_max_ps(_mm_max_ps(m0, m1), _mm_max_ps(m2, m3));
    best = _mm_max_ps(best,
                      _mm_shuffle_ps(best, best, _MM_SHUFFLE(1, 0, 3, 2)));
    best = _mm_max_ps(best,
                      _mm_shuffle_ps(best, best, _MM_SHUFFLE(2, 3, 0, 1)));
    // The first value equal to the maximum is the one the strict-`>`
    // scan keeps: -0 and +0 compare equal there as here. Every index
    // not in a whole block of four lies in the tail, and the tail's
    // lanes that overlap a block already failed to match.
    for (i = 0; i + 4 <= count; i += 4) {
        const int hits =
            _mm_movemask_ps(_mm_cmpeq_ps(_mm_loadu_ps(values + i), best));
        if (hits != 0) {
            return i + std::countr_zero(static_cast<unsigned>(hits));
        }
    }
    return tailAt
        + std::countr_zero(static_cast<unsigned>(
            _mm_movemask_ps(_mm_cmpeq_ps(tail, best))));
#else
    int best = 0;
    for (int a = 1; a < count; ++a) {
        if (values[a] > values[best]) {
            best = a;
        }
    }
    return best;
#endif
}

QTable::QTable(int numStates, int numActions)
    : numStates_(numStates), numActions_(numActions),
      base_(std::make_shared<std::vector<float>>(
          static_cast<std::size_t>(numStates)
              * static_cast<std::size_t>(numActions),
          0.0f)),
      private_(numActions)
{
    AS_CHECK(numStates_ > 0 && numActions_ > 0);
}

QTable::QTable(const QTable &other)
    : numStates_(other.numStates_), numActions_(other.numActions_),
      base_(std::make_shared<std::vector<float>>(*other.base_)),
      private_(other.numActions_)
{
    const std::size_t width = static_cast<std::size_t>(numActions_);
    for (const int state : other.privateStates()) {
        std::copy_n(other.row(state), width,
                    base_->data() + static_cast<std::size_t>(state) * width);
    }
}

QTable &
QTable::operator=(const QTable &other)
{
    if (this != &other) {
        *this = QTable(other);
    }
    return *this;
}

QTable::QTable(int numStates, int numActions,
               std::shared_ptr<std::vector<float>> base)
    : numStates_(numStates), numActions_(numActions),
      base_(std::move(base)), private_(numActions)
{
}

QTable
QTable::share() const
{
    QTable shared(numStates_, numActions_, base_);
    shared.private_ = private_;
    return shared;
}

QTable
QTable::baseCopy() const
{
    return QTable(numStates_, numActions_,
                  std::make_shared<std::vector<float>>(*base_));
}

QTable
QTable::baseShare() const
{
    return QTable(numStates_, numActions_, base_);
}

void
QTable::rebase(const QTable &source)
{
    AS_CHECK(source.numStates_ == numStates_
             && source.numActions_ == numActions_);
    base_ = source.base_;
    private_.clear();
}

float *
QTable::mutableRow(int state)
{
    checkState(state);
    if (!private_.empty()) {
        if (float *own = private_.find(state)) {
            return own;
        }
    }
    float *shared = base_->data()
        + static_cast<std::size_t>(state)
            * static_cast<std::size_t>(numActions_);
    // Refcounts change only where no other holder runs (see the file
    // comment), so this read is stable for the whole write.
    if (base_.use_count() == 1) {
        return shared;
    }
    return private_.insert(state, shared);
}

void
QTable::randomize(Rng &rng, double lo, double hi)
{
    AS_CHECK(lo <= hi);
    if (base_.use_count() != 1) {
        base_ = std::make_shared<std::vector<float>>(base_->size());
    }
    private_.clear();
    for (auto &value : *base_) {
        value = static_cast<float>(rng.uniform(lo, hi));
    }
}

int
QTable::bestAction(int state) const
{
    return firstMaxIndex(row(state), numActions_);
}

double
QTable::maxValue(int state) const
{
    const float *values = row(state);
    return values[firstMaxIndex(values, numActions_)];
}

std::size_t
QTable::memoryBytes() const
{
    return static_cast<std::size_t>(numStates_)
        * static_cast<std::size_t>(numActions_) * sizeof(float);
}

void
QTable::save(std::ostream &os) const
{
    // Checkpoints and --qtable files must parse back under any global
    // locale: pin the stream to the classic "C" locale while writing.
    const std::locale previous = os.imbue(std::locale::classic());
    os << numStates_ << ' ' << numActions_ << '\n';
    os << std::setprecision(9);
    for (int s = 0; s < numStates_; ++s) {
        const float *values = row(s);
        for (int a = 0; a < numActions_; ++a) {
            if (a > 0) {
                os << ' ';
            }
            os << values[a];
        }
        os << '\n';
    }
    os.imbue(previous);
}

bool
QTable::parse(std::istream &is, QTable *out, std::string *error)
{
    auto fail = [error](const std::string &message) {
        if (error != nullptr) {
            *error = message;
        }
        return false;
    };
    // The stream is untrusted (a user-supplied --qtable file or a
    // checkpoint that survived a crash): validate the header before
    // sizing any allocation and every value before trusting it. Parsing
    // is pinned to the classic locale so a comma-decimal global locale
    // cannot misread values that were written in "C" form.
    is.imbue(std::locale::classic());
    long long states = 0;
    long long actions = 0;
    if (!(is >> states >> actions) || states <= 0 || actions <= 0) {
        return fail("malformed header");
    }
    constexpr long long kMaxElements = 1LL << 26; // 64M floats = 256 MiB
    if (states > kMaxElements || actions > kMaxElements
        || states * actions > kMaxElements) {
        return fail("absurd header (" + std::to_string(states) + " x "
                    + std::to_string(actions) + " exceeds the "
                    + std::to_string(kMaxElements) + "-entry limit)");
    }
    QTable table(static_cast<int>(states), static_cast<int>(actions));
    // Values are parsed as tokens through strtof (operator>> never
    // accepts "nan"/"inf" text, which would hide the finiteness check).
    std::string token;
    for (int s = 0; s < states; ++s) {
        for (int a = 0; a < actions; ++a) {
            if (!(is >> token)) {
                return fail("truncated values");
            }
            char *end = nullptr;
            const float value = std::strtof(token.c_str(), &end);
            if (end == token.c_str() || *end != '\0') {
                return fail("unparseable value '" + token + "' at state "
                            + std::to_string(s) + ", action "
                            + std::to_string(a));
            }
            if (!std::isfinite(value)) {
                return fail("non-finite value at state "
                            + std::to_string(s) + ", action "
                            + std::to_string(a));
            }
            table.at(s, a) = value;
        }
    }
    *out = std::move(table);
    return true;
}

QTable
QTable::load(std::istream &is)
{
    QTable table(1, 1);
    std::string error;
    if (!parse(is, &table, &error)) {
        fatal("QTable::load: " + error);
    }
    return table;
}

std::uint16_t
floatToHalf(float value)
{
    std::uint32_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));

    const std::uint32_t sign = (bits >> 16) & 0x8000u;
    const std::int32_t exponent =
        static_cast<std::int32_t>((bits >> 23) & 0xffu) - 127 + 15;
    std::uint32_t mantissa = bits & 0x007fffffu;

    if (exponent >= 0x1f) {
        // Overflow or inf/nan: keep nan-ness, else saturate to inf.
        const bool is_nan =
            ((bits >> 23) & 0xffu) == 0xffu && mantissa != 0;
        return static_cast<std::uint16_t>(
            sign | 0x7c00u | (is_nan ? 0x200u : 0u));
    }
    if (exponent <= 0) {
        // Subnormal half (or zero): shift mantissa with the hidden bit.
        if (exponent < -10) {
            return static_cast<std::uint16_t>(sign);
        }
        mantissa |= 0x00800000u; // hidden bit: mantissa is 1.m * 2^23
        // Half subnormal significand = value * 2^24
        //                            = (mantissa / 2^23) * 2^(E + 9)
        //                            = mantissa >> (14 - E).
        const int shift = 14 - exponent;
        const std::uint32_t rounded =
            (mantissa + (1u << (shift - 1))) >> shift;
        return static_cast<std::uint16_t>(sign | rounded);
    }
    // Normal case with round-to-nearest-even on the dropped 13 bits.
    std::uint32_t half = sign
        | (static_cast<std::uint32_t>(exponent) << 10) | (mantissa >> 13);
    const std::uint32_t rest = mantissa & 0x1fffu;
    if (rest > 0x1000u || (rest == 0x1000u && (half & 1u))) {
        ++half; // may carry into the exponent, which is still correct
    }
    return static_cast<std::uint16_t>(half);
}

float
halfToFloat(std::uint16_t bits)
{
    const std::uint32_t sign = (static_cast<std::uint32_t>(bits) & 0x8000u)
        << 16;
    const std::uint32_t exponent = (bits >> 10) & 0x1fu;
    std::uint32_t mantissa = bits & 0x3ffu;

    std::uint32_t out;
    if (exponent == 0) {
        if (mantissa == 0) {
            out = sign; // signed zero
        } else {
            // Subnormal: normalize.
            int e = -1;
            do {
                ++e;
                mantissa <<= 1;
            } while ((mantissa & 0x400u) == 0);
            mantissa &= 0x3ffu;
            out = sign | (static_cast<std::uint32_t>(127 - 15 - e) << 23)
                | (mantissa << 13);
        }
    } else if (exponent == 0x1f) {
        out = sign | 0x7f800000u | (mantissa << 13); // inf / nan
    } else {
        out = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
    }
    float value;
    std::memcpy(&value, &out, sizeof(value));
    return value;
}

PackedQTable::PackedQTable(const QTable &table)
    : numStates_(table.numStates()), numActions_(table.numActions()),
      values_(static_cast<std::size_t>(table.numStates())
                  * static_cast<std::size_t>(table.numActions()),
              0)
{
    for (int s = 0; s < numStates_; ++s) {
        for (int a = 0; a < numActions_; ++a) {
            values_[index(s, a)] = floatToHalf(table.at(s, a));
        }
    }
}

std::size_t
PackedQTable::index(int state, int action) const
{
    AS_CHECK(state >= 0 && state < numStates_);
    AS_CHECK(action >= 0 && action < numActions_);
    return static_cast<std::size_t>(state)
        * static_cast<std::size_t>(numActions_)
        + static_cast<std::size_t>(action);
}

float
PackedQTable::at(int state, int action) const
{
    return halfToFloat(values_[index(state, action)]);
}

int
PackedQTable::bestAction(int state) const
{
    int best = 0;
    float best_value = at(state, 0);
    for (int a = 1; a < numActions_; ++a) {
        const float value = at(state, a);
        if (value > best_value) {
            best_value = value;
            best = a;
        }
    }
    return best;
}

QTable
PackedQTable::unpack() const
{
    QTable table(numStates_, numActions_);
    for (int s = 0; s < numStates_; ++s) {
        for (int a = 0; a < numActions_; ++a) {
            table.at(s, a) = at(s, a);
        }
    }
    return table;
}

std::size_t
PackedQTable::memoryBytes() const
{
    return values_.size() * sizeof(std::uint16_t);
}

} // namespace autoscale::core
