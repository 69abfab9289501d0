/**
 * @file
 * Process memory introspection for the fleet memory gate
 * (DESIGN.md §18): peak and current resident set size read from
 * /proc/self/status. Returns 0 on platforms without procfs, so callers
 * must treat 0 as "unknown", never as "no memory used".
 */

#ifndef AUTOSCALE_UTIL_MEM_H_
#define AUTOSCALE_UTIL_MEM_H_

#include <cstdint>

namespace autoscale::util {

/** Peak resident set size (VmHWM), bytes; 0 when unavailable. */
std::uint64_t peakRssBytes();

/** Current resident set size (VmRSS), bytes; 0 when unavailable. */
std::uint64_t currentRssBytes();

/**
 * Return the heap's free pages to the system (glibc malloc_trim; a
 * no-op elsewhere), so the next currentRssBytes() counts live memory
 * only. Without it, a run that fits in memory earlier work freed
 * reads as using none.
 */
void releaseFreeHeap();

} // namespace autoscale::util

#endif // AUTOSCALE_UTIL_MEM_H_
