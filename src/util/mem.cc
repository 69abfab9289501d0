#include "util/mem.h"

#include <fstream>
#include <sstream>
#include <string>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace autoscale::util {

namespace {

/** Read a "<key>:  <n> kB" line from /proc/self/status, in bytes. */
std::uint64_t
statusLineBytes(const char *key)
{
    std::ifstream status("/proc/self/status");
    if (!status) {
        return 0;
    }
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(key, 0) != 0) {
            continue;
        }
        std::istringstream fields(line.substr(std::string(key).size()));
        std::uint64_t kb = 0;
        fields >> kb;
        return kb * 1024;
    }
    return 0;
}

} // namespace

std::uint64_t
peakRssBytes()
{
    return statusLineBytes("VmHWM:");
}

std::uint64_t
currentRssBytes()
{
    return statusLineBytes("VmRSS:");
}

void
releaseFreeHeap()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

} // namespace autoscale::util
