#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "common/byte_utils.h"

// SHA-NI path: compiled whenever the compiler supports per-function
// target attributes (GCC/Clang on x86-64); selected at run time via
// cpuid so the binary still runs on hosts without the extension.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HIX_SHA_HW 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace hix::crypto
{

namespace
{

alignas(16) constexpr std::uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t x, int n)
{
    return (x >> n) | (x << (32 - n));
}

/** The FIPS 180-4 compression loop over @p n blocks. */
void
compressScalar(std::uint32_t state[8], const std::uint8_t *data,
               std::size_t n)
{
    for (; n > 0; --n, data += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i)
            w[i] = loadBE32(data + 4 * i);
        for (int i = 16; i < 64; ++i) {
            std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                               (w[i - 15] >> 3);
            std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                               (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2],
                      d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6],
                      h = state[7];

        for (int i = 0; i < 64; ++i) {
            std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            std::uint32_t ch = (e & f) ^ (~e & g);
            std::uint32_t t1 = h + s1 + ch + K[i] + w[i];
            std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            std::uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#ifdef HIX_SHA_HW

/**
 * The compression loop on SHA-NI. The state lives in two registers
 * in the instructions' order, ABEF and CDGH, for all @p n blocks.
 * Each pass of the round loop runs four rounds: two SHA256RNDS2 on
 * message words plus K, four words at a time. The message schedule
 * keeps the last four word groups X_{j-4} .. X_{j-1} in a ring, and
 * derives X_j = W[4j .. 4j+3] from them with MSG1 (the sigma0 terms),
 * one ALIGNR (the W[t-7] terms) and MSG2 (the sigma1 terms).
 */
__attribute__((target("sha,sse4.1"))) void
compressHw(std::uint32_t state[8], const std::uint8_t *data,
           std::size_t n)
{
    // Byte-swaps each 32-bit word: message words are big-endian.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);

    const __m128i dcba =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    const __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
    const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    for (; n > 0; --n, data += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i x[4];
#pragma GCC unroll 16
        for (int j = 0; j < 16; ++j) {
            __m128i &xj = x[j & 3];
            if (j < 4) {
                xj = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(data + 16 * j)),
                    bswap);
            } else {
                const __m128i prev = x[(j + 3) & 3];
                xj = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32(xj, x[(j + 1) & 3]),
                                  _mm_alignr_epi8(prev, x[(j + 2) & 3], 4)),
                    prev);
            }
            const __m128i wk = _mm_add_epi32(
                xj, _mm_load_si128(reinterpret_cast<const __m128i *>(K) + j));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh,
                                         _mm_shuffle_epi32(wk, 0x0e));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
    const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state),
                     _mm_blend_epi16(feba, dchg, 0xf0));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4),
                     _mm_alignr_epi8(dchg, feba, 8));
}

#endif  // HIX_SHA_HW

}  // namespace

bool
Sha256::hwSupported()
{
#ifdef HIX_SHA_HW
    // CPUID leaf 7 EBX bit 29 (SHA) and leaf 1 ECX bit 19 (SSE4.1),
    // read directly: older clang releases reject
    // __builtin_cpu_supports("sha").
    static const bool supported = [] {
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & bit_SSE4_1))
            return false;
        return __get_cpuid_count(7, 0, &a, &b, &c, &d) != 0 &&
               (b & bit_SHA) != 0;
    }();
    return supported;
#else
    return false;
#endif
}

Sha256::Sha256(Sha256Engine engine)
    : use_hw_(engine == Sha256Engine::Fast && hwSupported())
{
    reset();
}

void
Sha256::reset()
{
    h_[0] = 0x6a09e667;
    h_[1] = 0xbb67ae85;
    h_[2] = 0x3c6ef372;
    h_[3] = 0xa54ff53a;
    h_[4] = 0x510e527f;
    h_[5] = 0x9b05688c;
    h_[6] = 0x1f83d9ab;
    h_[7] = 0x5be0cd19;
    buf_len_ = 0;
    total_len_ = 0;
}

void
Sha256::processBlocks(const std::uint8_t *data, std::size_t n)
{
#ifdef HIX_SHA_HW
    if (use_hw_) {
        compressHw(h_, data, n);
        return;
    }
#endif
    compressScalar(h_, data, n);
}

void
Sha256::update(const std::uint8_t *data, std::size_t len)
{
    if (len == 0)
        return;
    total_len_ += len;
    if (buf_len_ > 0) {
        const std::size_t take = std::min(64 - buf_len_, len);
        std::memcpy(buf_ + buf_len_, data, take);
        buf_len_ += take;
        data += take;
        len -= take;
        if (buf_len_ < 64)
            return;
        processBlocks(buf_, 1);
        buf_len_ = 0;
    }
    const std::size_t blocks = len / 64;
    if (blocks > 0)
        processBlocks(data, blocks);
    buf_len_ = len % 64;
    std::memcpy(buf_, data + 64 * blocks, buf_len_);
}

Sha256Digest
Sha256::finalize()
{
    // The tail, 0x80, zeros and the 64-bit big-endian bit length fill
    // one block, or two when fewer than 9 bytes are left after the tail.
    std::uint8_t pad[128] = {};
    std::memcpy(pad, buf_, buf_len_);
    pad[buf_len_] = 0x80;
    const std::size_t blocks = buf_len_ < 56 ? 1 : 2;
    storeBE64(pad + 64 * blocks - 8, total_len_ * 8);
    processBlocks(pad, blocks);
    buf_len_ = 0;

    Sha256Digest out;
    for (int i = 0; i < 8; ++i)
        storeBE32(out.data() + 4 * i, h_[i]);
    return out;
}

Sha256Digest
Sha256::digest(const std::uint8_t *data, std::size_t len)
{
    Sha256 h;
    h.update(data, len);
    return h.finalize();
}

Sha256Digest
Sha256::digest(const Bytes &data)
{
    return digest(data.data(), data.size());
}

Sha256Digest
Sha256::digest(const std::string &s)
{
    return digest(reinterpret_cast<const std::uint8_t *>(s.data()),
                  s.size());
}

}  // namespace hix::crypto
