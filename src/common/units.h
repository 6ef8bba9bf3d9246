/**
 * @file
 * Size and time unit helpers. Simulated time is measured in ticks of
 * one nanosecond, matching the resolution the timing model needs for
 * PCIe transactions and crypto pipelines.
 */

#ifndef HIX_COMMON_UNITS_H_
#define HIX_COMMON_UNITS_H_

#include <cstdint>

#include "common/types.h"

namespace hix
{

inline constexpr std::uint64_t KiB = 1024ull;
inline constexpr std::uint64_t MiB = 1024ull * KiB;
inline constexpr std::uint64_t GiB = 1024ull * MiB;

/** One nanosecond, in ticks. */
inline constexpr Tick NS = 1;
/** One microsecond, in ticks. */
inline constexpr Tick US = 1000 * NS;
/** One millisecond, in ticks. */
inline constexpr Tick MS = 1000 * US;
/** One second, in ticks. */
inline constexpr Tick SEC = 1000 * MS;

/**
 * Time (in ticks) to move @p bytes through a link sustaining
 * @p bytes_per_sec. Rounds up so that nonzero work always costs at
 * least one tick.
 */
constexpr Tick
transferTicks(std::uint64_t bytes, std::uint64_t bytes_per_sec)
{
    if (bytes == 0 || bytes_per_sec == 0)
        return 0;
    // ticks = bytes / (bytes_per_sec / SEC) = bytes * SEC / bytes_per_sec
    const auto num = static_cast<unsigned __int128>(bytes) * SEC;
    auto t = static_cast<Tick>(num / bytes_per_sec);
    return t == 0 ? 1 : t;
}

/** Convert ticks to fractional milliseconds (for reports). */
constexpr double
ticksToMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(MS);
}

}  // namespace hix

#endif  // HIX_COMMON_UNITS_H_
