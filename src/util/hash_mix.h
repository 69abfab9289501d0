/**
 * @file
 * The golden-ratio hash fold behind the serve and fleet digests: a
 * device's RNG fingerprint and barrier state digest, the fleet
 * checksum, the fleet config digest and the churn draw seeds. Those
 * values are pinned by tests and goldens, so the fold never changes.
 */

#ifndef AUTOSCALE_UTIL_HASH_MIX_H_
#define AUTOSCALE_UTIL_HASH_MIX_H_

#include <bit>
#include <cstdint>

namespace autoscale {

/** Fold @p value into @p hash (the boost::hash_combine mix, 64-bit). */
inline std::uint64_t
mixHash(std::uint64_t hash, std::uint64_t value)
{
    return hash
        ^ (value + 0x9e3779b97f4a7c15ULL + (hash << 6) + (hash >> 2));
}

/** Fold the bit pattern of @p value into @p hash. */
inline std::uint64_t
mixHashDouble(std::uint64_t hash, double value)
{
    return mixHash(hash, std::bit_cast<std::uint64_t>(value));
}

} // namespace autoscale

#endif // AUTOSCALE_UTIL_HASH_MIX_H_
