#include "util/rng_jump.h"

#include <bit>
#include <cstddef>

#include "util/logging.h"

namespace autoscale::util {

namespace {

/** A polynomial over GF(2) of degree < 256; bit i is x^i. */
using Poly = std::array<std::uint64_t, 4>;

/** x^(256 + k) mod P for k = 0..255: the images of a product's high
 * half under reduction. */
using HighPowers = std::array<Poly, 256>;

/** One xoshiro256** state transition (the output mix doesn't touch the
 * state). */
void
step(std::uint64_t s[4])
{
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = (s[3] << 45) | (s[3] >> 19);
}

/**
 * P without its x^256 term, P being the characteristic polynomial of
 * the state transition T. Berlekamp–Massey on 512 bits of one state bit
 * finds it: T has full period, so P is primitive and is the minimal
 * polynomial of any nonzero linear output sequence, and an LFSR of
 * length 256 is fixed by 2 x 256 of its bits.
 */
Poly
characteristicLow()
{
    constexpr int kBits = 512;
    constexpr std::size_t kWords = kBits / 64;
    using Wide = std::array<std::uint64_t, kWords>;
    auto bitOf = [](const Wide &v, int i) {
        return ((v[static_cast<std::size_t>(i / 64)] >> (i % 64)) & 1) != 0;
    };

    // c is the connection polynomial C(x) = 1 + c_1 x + ... + c_L x^L,
    // b the one before the last length change, and window holds
    // s_i at bit 0, s_(i-1) at bit 1, and so on.
    Wide c{1};
    Wide b{1};
    Wide window{};
    int length = 0;
    int shift = 1;
    std::uint64_t state[4] = {1, 0, 0, 0};
    for (int i = 0; i < kBits; ++i) {
        for (std::size_t w = kWords - 1; w > 0; --w) {
            window[w] = (window[w] << 1) | (window[w - 1] >> 63);
        }
        window[0] = (window[0] << 1) | (state[0] & 1);
        step(state);

        std::uint64_t discrepancy = 0;
        for (std::size_t w = 0; w < kWords; ++w) {
            discrepancy ^= c[w] & window[w];
        }
        if (std::popcount(discrepancy) % 2 == 0) {
            ++shift;
            continue;
        }
        // c += x^shift b.
        const Wide previous = c;
        const std::size_t words = static_cast<std::size_t>(shift / 64);
        const int bits = shift % 64;
        for (std::size_t w = kWords; w-- > words;) {
            const std::size_t from = w - words;
            std::uint64_t moved = b[from] << bits;
            if (bits != 0 && from > 0) {
                moved |= b[from - 1] >> (64 - bits);
            }
            c[w] ^= moved;
        }
        if (2 * length <= i) {
            length = i + 1 - length;
            b = previous;
            shift = 1;
        } else {
            ++shift;
        }
    }
    AS_CHECK(length == 256 && bitOf(c, 0) && bitOf(c, 256));

    // P(x) = x^256 C(1/x): the coefficient of x^k is c_(256-k).
    Poly low{};
    for (int k = 0; k < 256; ++k) {
        if (bitOf(c, 256 - k)) {
            low[static_cast<std::size_t>(k / 64)] |= 1ULL << (k % 64);
        }
    }
    return low;
}

/** x * @p p mod P, where P = x^256 + @p low. */
Poly
timesX(const Poly &p, const Poly &low)
{
    const std::uint64_t carry = p[3] >> 63;
    Poly out{p[0] << 1, (p[1] << 1) | (p[0] >> 63),
             (p[2] << 1) | (p[1] >> 63), (p[3] << 1) | (p[2] >> 63)};
    const std::uint64_t mask = 0 - carry;
    for (std::size_t w = 0; w < 4; ++w) {
        out[w] ^= low[w] & mask;
    }
    return out;
}

/** The 32 low bits of @p x moved to the even bit positions. */
std::uint64_t
spreadBits(std::uint64_t x)
{
    x &= 0xffffffffULL;
    x = (x | (x << 16)) & 0x0000ffff0000ffffULL;
    x = (x | (x << 8)) & 0x00ff00ff00ff00ffULL;
    x = (x | (x << 4)) & 0x0f0f0f0f0f0f0f0fULL;
    x = (x | (x << 2)) & 0x3333333333333333ULL;
    x = (x | (x << 1)) & 0x5555555555555555ULL;
    return x;
}

/** @p p squared mod P. Over GF(2), squaring moves bit i to bit 2i. */
Poly
squareMod(const Poly &p, const HighPowers &high)
{
    Poly out{};
    for (std::size_t w = 0; w < 4; ++w) {
        const std::uint64_t lo = spreadBits(p[w]);
        const std::uint64_t hi = spreadBits(p[w] >> 32);
        if (w < 2) {
            out[2 * w] = lo;
            out[2 * w + 1] = hi;
            continue;
        }
        const std::uint64_t halves[2] = {lo, hi};
        for (std::size_t h = 0; h < 2; ++h) {
            std::uint64_t bits = halves[h];
            const std::size_t first = (2 * (w - 2) + h) * 64;
            while (bits != 0) {
                const Poly &power = high[first
                                         + static_cast<std::size_t>(
                                             std::countr_zero(bits))];
                bits &= bits - 1;
                for (std::size_t j = 0; j < 4; ++j) {
                    out[j] ^= power[j];
                }
            }
        }
    }
    return out;
}

} // namespace

RngJump::RngJump(std::uint64_t steps) : steps_(steps), jump_{1, 0, 0, 0}
{
    const Poly low = characteristicLow();
    HighPowers high;
    high[0] = low;
    for (std::size_t k = 1; k < high.size(); ++k) {
        high[k] = timesX(high[k - 1], low);
    }
    // Left-to-right square-and-multiply: jump_ = x^steps mod P.
    for (int bit = std::bit_width(steps) - 1; bit >= 0; --bit) {
        jump_ = squareMod(jump_, high);
        if (((steps >> bit) & 1) != 0) {
            jump_ = timesX(jump_, low);
        }
    }
}

RngJump
RngJump::expanded() const
{
    // Horner's rule as in apply, on the 256 unit states at once: column
    // i starts at 0, and each set coefficient adds e_i to it. The words
    // of all columns sit in four arrays, so each step runs over 256
    // independent columns.
    std::array<std::array<std::uint64_t, 256>, 4> s{};
    for (std::size_t w = 4; w-- > 0;) {
        for (int bit = 63; bit >= 0; --bit) {
            for (std::size_t i = 0; i < 256; ++i) {
                const std::uint64_t t = s[1][i] << 17;
                s[2][i] ^= s[0][i];
                s[3][i] ^= s[1][i];
                s[1][i] ^= s[2][i];
                s[0][i] ^= s[3][i];
                s[2][i] ^= t;
                s[3][i] = std::rotl(s[3][i], 45);
            }
            if (((jump_[w] >> bit) & 1) != 0) {
                for (std::size_t i = 0; i < 256; ++i) {
                    s[i / 64][i] ^= 1ULL << (i % 64);
                }
            }
        }
    }
    RngJump out = *this;
    out.columns_.resize(256);
    for (std::size_t i = 0; i < 256; ++i) {
        out.columns_[i] = {s[0][i], s[1][i], s[2][i], s[3][i]};
    }
    return out;
}

void
RngJump::apply(Rng &rng) const
{
    if (!columns_.empty()) {
        std::uint64_t state[4];
        rng.state(state);
        std::uint64_t jumped[4] = {0, 0, 0, 0};
        for (std::size_t w = 0; w < 4; ++w) {
            std::uint64_t bits = state[w];
            while (bits != 0) {
                const auto &column = columns_[w * 64
                                              + static_cast<std::size_t>(
                                                  std::countr_zero(bits))];
                bits &= bits - 1;
                for (std::size_t j = 0; j < 4; ++j) {
                    jumped[j] ^= column[j];
                }
            }
        }
        rng.setState(jumped);
        return;
    }
    // T^steps s = J(T) s = j_0 s + T (j_1 s + T (j_2 s + ...)),
    // taking the coefficients from j_255 down.
    // The state words stay in named scalars: packed into vectors, each
    // step would round-trip through memory.
    std::uint64_t start[4];
    rng.state(start);
    std::uint64_t s0 = 0;
    std::uint64_t s1 = 0;
    std::uint64_t s2 = 0;
    std::uint64_t s3 = 0;
    for (std::size_t w = 4; w-- > 0;) {
        std::uint64_t coefficients = jump_[w];
        for (int bit = 0; bit < 64; ++bit) {
            const std::uint64_t t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = std::rotl(s3, 45);
            const std::uint64_t mask = 0 - (coefficients >> 63);
            coefficients <<= 1;
            s0 ^= start[0] & mask;
            s1 ^= start[1] & mask;
            s2 ^= start[2] & mask;
            s3 ^= start[3] & mask;
        }
    }
    const std::uint64_t jumped[4] = {s0, s1, s2, s3};
    rng.setState(jumped);
}

} // namespace autoscale::util
