/**
 * @file
 * Little/big-endian loads and stores, hex encoding, and XOR helpers
 * used by the crypto and PCIe packet code, and a byte-span overlap
 * test.
 */

#ifndef HIX_COMMON_BYTE_UTILS_H_
#define HIX_COMMON_BYTE_UTILS_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "common/types.h"

namespace hix
{

/** True when two non-empty byte spans share at least one byte. */
inline bool
spansOverlap(std::span<const std::uint8_t> a,
             std::span<const std::uint8_t> b)
{
    const auto a0 = reinterpret_cast<std::uintptr_t>(a.data());
    const auto b0 = reinterpret_cast<std::uintptr_t>(b.data());
    return !a.empty() && !b.empty() && a0 < b0 + b.size() &&
           b0 < a0 + a.size();
}

inline std::uint32_t
loadLE32(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
           (std::uint32_t(p[2]) << 16) | (std::uint32_t(p[3]) << 24);
}

inline std::uint64_t
loadLE64(const std::uint8_t *p)
{
    return std::uint64_t(loadLE32(p)) |
           (std::uint64_t(loadLE32(p + 4)) << 32);
}

inline void
storeLE32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = std::uint8_t(v);
    p[1] = std::uint8_t(v >> 8);
    p[2] = std::uint8_t(v >> 16);
    p[3] = std::uint8_t(v >> 24);
}

inline void
storeLE64(std::uint8_t *p, std::uint64_t v)
{
    storeLE32(p, std::uint32_t(v));
    storeLE32(p + 4, std::uint32_t(v >> 32));
}

inline std::uint32_t
loadBE32(const std::uint8_t *p)
{
    return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
           (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

inline std::uint64_t
loadBE64(const std::uint8_t *p)
{
    return (std::uint64_t(loadBE32(p)) << 32) |
           std::uint64_t(loadBE32(p + 4));
}

inline void
storeBE32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = std::uint8_t(v >> 24);
    p[1] = std::uint8_t(v >> 16);
    p[2] = std::uint8_t(v >> 8);
    p[3] = std::uint8_t(v);
}

inline void
storeBE64(std::uint8_t *p, std::uint64_t v)
{
    storeBE32(p, std::uint32_t(v >> 32));
    storeBE32(p + 4, std::uint32_t(v));
}

/** dst ^= src over n bytes. */
inline void
xorBytes(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] ^= src[i];
}

/** Lowercase hex string of a byte buffer. */
std::string toHex(const std::uint8_t *data, std::size_t n);
std::string toHex(const Bytes &data);

/** Parse a hex string (even length, [0-9a-fA-F]) into bytes. */
Bytes fromHex(const std::string &hex);

/**
 * Constant-time byte comparison; returns true when equal. Used for
 * MAC verification so that mismatch position does not leak via timing
 * (the modelled software stack mirrors the real implementation).
 */
bool constantTimeEqual(const std::uint8_t *a, const std::uint8_t *b,
                       std::size_t n);

}  // namespace hix

#endif  // HIX_COMMON_BYTE_UTILS_H_
