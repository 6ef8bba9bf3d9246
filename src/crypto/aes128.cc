#include "crypto/aes128.h"

#include <bit>
#include <cstring>

#include "common/byte_utils.h"
#include "common/logging.h"

// AES-NI and VAES paths: compiled whenever the compiler supports
// per-function target attributes (GCC/Clang on x86-64); selected at
// run time via cpuid so the binary still runs on hosts without the
// extensions.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HIX_AES_HW 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace hix::crypto
{

namespace
{

std::uint8_t
xtime(std::uint8_t a)
{
    return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
}

std::uint8_t
gmul(std::uint8_t a, std::uint8_t b)
{
    std::uint8_t p = 0;
    while (b) {
        if (b & 1)
            p ^= a;
        a = xtime(a);
        b >>= 1;
    }
    return p;
}

/**
 * The S-box and its inverse are derived at startup from the GF(2^8)
 * definition in FIPS 197 (multiplicative inverse followed by the
 * affine transform) rather than pasted as literal tables; this makes
 * the construction self-checking. The four encrypt (Te) and four
 * decrypt (Td) T-tables — SubBytes, ShiftRows, and MixColumns fused
 * into one 32-bit lookup per state byte — are then built from the
 * S-box, so the fast path inherits the same provenance.
 */
struct AesTables
{
    std::uint8_t sbox[256];
    std::uint8_t inv[256];
    std::uint32_t te[4][256];
    std::uint32_t td[4][256];

    AesTables()
    {
        // Build log/antilog tables over GF(2^8) with generator 3.
        std::uint8_t pow[256];
        std::uint8_t log[256] = {0};
        std::uint8_t x = 1;
        for (int i = 0; i < 255; ++i) {
            pow[i] = x;
            log[x] = static_cast<std::uint8_t>(i);
            // multiply x by 3 = x ^ (x * 2)
            std::uint8_t x2 = static_cast<std::uint8_t>(
                (x << 1) ^ ((x & 0x80) ? 0x1b : 0));
            x ^= x2;
        }
        pow[255] = pow[0];

        for (int i = 0; i < 256; ++i) {
            std::uint8_t inv_i =
                i == 0 ? 0 : pow[255 - log[static_cast<std::uint8_t>(i)]];
            // Affine transform: b ^= rot(b,1)^rot(b,2)^rot(b,3)^rot(b,4)
            // ^ 0x63, with rot = left-rotate.
            std::uint8_t b = inv_i;
            std::uint8_t res = 0x63;
            for (int r = 0; r < 5; ++r) {
                res ^= b;
                b = static_cast<std::uint8_t>((b << 1) | (b >> 7));
            }
            sbox[i] = res;
            inv[res] = static_cast<std::uint8_t>(i);
        }

        for (int i = 0; i < 256; ++i) {
            const std::uint8_t s = sbox[i];
            const std::uint8_t s2 = xtime(s);
            const std::uint8_t s3 = static_cast<std::uint8_t>(s2 ^ s);
            // Te0 holds the MixColumns column [02 01 01 03]·S[x] for a
            // row-0 byte; Te1..Te3 are byte rotations for rows 1..3.
            std::uint32_t w = (std::uint32_t(s2) << 24) |
                              (std::uint32_t(s) << 16) |
                              (std::uint32_t(s) << 8) | std::uint32_t(s3);
            for (int t = 0; t < 4; ++t) {
                te[t][i] = w;
                w = (w >> 8) | (w << 24);
            }

            const std::uint8_t is = inv[i];
            std::uint32_t v = (std::uint32_t(gmul(is, 14)) << 24) |
                              (std::uint32_t(gmul(is, 9)) << 16) |
                              (std::uint32_t(gmul(is, 13)) << 8) |
                              std::uint32_t(gmul(is, 11));
            for (int t = 0; t < 4; ++t) {
                td[t][i] = v;
                v = (v >> 8) | (v << 24);
            }
        }
    }
};

const AesTables tables;

std::uint32_t
subWord(std::uint32_t w)
{
    return (std::uint32_t(tables.sbox[(w >> 24) & 0xff]) << 24) |
           (std::uint32_t(tables.sbox[(w >> 16) & 0xff]) << 16) |
           (std::uint32_t(tables.sbox[(w >> 8) & 0xff]) << 8) |
           std::uint32_t(tables.sbox[w & 0xff]);
}

std::uint32_t
rotWord(std::uint32_t w)
{
    return (w << 8) | (w >> 24);
}

/** InvMixColumns on one big-endian column word (key-schedule only). */
std::uint32_t
invMixWord(std::uint32_t w)
{
    const std::uint8_t a0 = static_cast<std::uint8_t>(w >> 24);
    const std::uint8_t a1 = static_cast<std::uint8_t>(w >> 16);
    const std::uint8_t a2 = static_cast<std::uint8_t>(w >> 8);
    const std::uint8_t a3 = static_cast<std::uint8_t>(w);
    return (std::uint32_t(gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^
                          gmul(a3, 9))
            << 24) |
           (std::uint32_t(gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^
                          gmul(a3, 13))
            << 16) |
           (std::uint32_t(gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^
                          gmul(a3, 11))
            << 8) |
           std::uint32_t(gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^
                         gmul(a3, 14));
}

// ----- Reference (scalar) round functions ------------------------------

void
addRoundKey(std::uint8_t state[16], const std::uint32_t *rk)
{
    for (int c = 0; c < 4; ++c) {
        std::uint32_t w = rk[c];
        state[4 * c + 0] ^= static_cast<std::uint8_t>(w >> 24);
        state[4 * c + 1] ^= static_cast<std::uint8_t>(w >> 16);
        state[4 * c + 2] ^= static_cast<std::uint8_t>(w >> 8);
        state[4 * c + 3] ^= static_cast<std::uint8_t>(w);
    }
}

void
subBytes(std::uint8_t state[16])
{
    for (int i = 0; i < 16; ++i)
        state[i] = tables.sbox[state[i]];
}

void
invSubBytes(std::uint8_t state[16])
{
    for (int i = 0; i < 16; ++i)
        state[i] = tables.inv[state[i]];
}

void
shiftRows(std::uint8_t s[16])
{
    // State is column-major: s[4*c + r]. Row r rotates left by r.
    std::uint8_t t;
    // row 1
    t = s[1];
    s[1] = s[5];
    s[5] = s[9];
    s[9] = s[13];
    s[13] = t;
    // row 2
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // row 3 (rotate left by 3 == right by 1)
    t = s[15];
    s[15] = s[11];
    s[11] = s[7];
    s[7] = s[3];
    s[3] = t;
}

void
invShiftRows(std::uint8_t s[16])
{
    std::uint8_t t;
    // row 1 rotates right by 1
    t = s[13];
    s[13] = s[9];
    s[9] = s[5];
    s[5] = s[1];
    s[1] = t;
    // row 2
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // row 3 rotates right by 3 == left by 1
    t = s[3];
    s[3] = s[7];
    s[7] = s[11];
    s[11] = s[15];
    s[15] = t;
}

void
mixColumns(std::uint8_t s[16])
{
    for (int c = 0; c < 4; ++c) {
        std::uint8_t *col = s + 4 * c;
        std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = static_cast<std::uint8_t>(xtime(a0) ^ xtime(a1) ^ a1 ^
                                           a2 ^ a3);
        col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ xtime(a2) ^
                                           a2 ^ a3);
        col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^
                                           xtime(a3) ^ a3);
        col[3] = static_cast<std::uint8_t>(xtime(a0) ^ a0 ^ a1 ^ a2 ^
                                           xtime(a3));
    }
}

void
invMixColumns(std::uint8_t s[16])
{
    for (int c = 0; c < 4; ++c) {
        std::uint8_t *col = s + 4 * c;
        std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
        col[0] = gmul(a0, 14) ^ gmul(a1, 11) ^ gmul(a2, 13) ^ gmul(a3, 9);
        col[1] = gmul(a0, 9) ^ gmul(a1, 14) ^ gmul(a2, 11) ^ gmul(a3, 13);
        col[2] = gmul(a0, 13) ^ gmul(a1, 9) ^ gmul(a2, 14) ^ gmul(a3, 11);
        col[3] = gmul(a0, 11) ^ gmul(a1, 13) ^ gmul(a2, 9) ^ gmul(a3, 14);
    }
}

// ----- AES-NI engine ---------------------------------------------------

#ifdef HIX_AES_HW

/**
 * Encrypt @p n blocks with AES instructions, eight blocks per
 * iteration so the ~4-cycle AESENC latency is hidden by independent
 * chains. Round keys arrive as the 176 serialized schedule bytes.
 */
__attribute__((target("aes,sse2"))) void
hwEncryptBlocks(const std::uint8_t *rk_bytes, const std::uint8_t *in,
                std::uint8_t *out, std::size_t n)
{
    __m128i rk[11];
    for (int r = 0; r <= 10; ++r)
        rk[r] = _mm_load_si128(
            reinterpret_cast<const __m128i *>(rk_bytes + 16 * r));
    while (n >= 8) {
        __m128i s[8];
        for (int b = 0; b < 8; ++b)
            s[b] = _mm_xor_si128(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(in + 16 * b)),
                rk[0]);
        for (int r = 1; r < 10; ++r)
            for (int b = 0; b < 8; ++b)
                s[b] = _mm_aesenc_si128(s[b], rk[r]);
        for (int b = 0; b < 8; ++b)
            _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 16 * b),
                             _mm_aesenclast_si128(s[b], rk[10]));
        in += 8 * AesBlockSize;
        out += 8 * AesBlockSize;
        n -= 8;
    }
    for (; n > 0; --n) {
        __m128i s = _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(in)),
            rk[0]);
        for (int r = 1; r < 10; ++r)
            s = _mm_aesenc_si128(s, rk[r]);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                         _mm_aesenclast_si128(s, rk[10]));
        in += AesBlockSize;
        out += AesBlockSize;
    }
}

/**
 * Decrypt with AESDEC. The serialized schedule is the
 * equivalent-inverse-cipher one (middle rounds already through
 * InvMixColumns), which is exactly the form AESDEC consumes.
 */
__attribute__((target("aes,sse2"))) void
hwDecryptBlocks(const std::uint8_t *rk_bytes, const std::uint8_t *in,
                std::uint8_t *out, std::size_t n)
{
    __m128i rk[11];
    for (int r = 0; r <= 10; ++r)
        rk[r] = _mm_load_si128(
            reinterpret_cast<const __m128i *>(rk_bytes + 16 * r));
    while (n >= 8) {
        __m128i s[8];
        for (int b = 0; b < 8; ++b)
            s[b] = _mm_xor_si128(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(in + 16 * b)),
                rk[0]);
        for (int r = 1; r < 10; ++r)
            for (int b = 0; b < 8; ++b)
                s[b] = _mm_aesdec_si128(s[b], rk[r]);
        for (int b = 0; b < 8; ++b)
            _mm_storeu_si128(reinterpret_cast<__m128i *>(out + 16 * b),
                             _mm_aesdeclast_si128(s[b], rk[10]));
        in += 8 * AesBlockSize;
        out += 8 * AesBlockSize;
        n -= 8;
    }
    for (; n > 0; --n) {
        __m128i s = _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(in)),
            rk[0]);
        for (int r = 1; r < 10; ++r)
            s = _mm_aesdec_si128(s, rk[r]);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out),
                         _mm_aesdeclast_si128(s, rk[10]));
        in += AesBlockSize;
        out += AesBlockSize;
    }
}

__attribute__((target("aes,sse2"))) __m128i
loadBlock(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

__attribute__((target("aes,sse2"))) void
storeBlock(std::uint8_t *p, __m128i v)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(p), v);
}

/**
 * The offset steps of one OCB batch. Batches start at block indices
 * i ≡ 1 (mod 8), so ntz(i + j) for the first seven blocks is
 * 0, 1, 0, 2, 0, 1, 0 whatever i is, and their offsets are
 * Offset_{i-1} ^ D_j with D = {L0, L0^L1, L1, L1^L2, L0^L1^L2, L0^L2,
 * L2}. Only the eighth block's ntz(i + 7) >= 3 depends on i:
 * Offset_{i+7} = Offset_{i-1} ^ L2 ^ L[ntz(i + 7)], one tzcnt and one
 * load per batch instead of eight dependent loads.
 */
__attribute__((target("aes,sse2"))) void
ocbBatchSteps(const AesBlock *l, __m128i d[7])
{
    const __m128i l0 = loadBlock(l[0].data());
    const __m128i l1 = loadBlock(l[1].data());
    const __m128i l2 = loadBlock(l[2].data());
    d[0] = l0;
    d[1] = _mm_xor_si128(l0, l1);
    d[2] = l1;
    d[3] = _mm_xor_si128(l1, l2);
    d[4] = _mm_xor_si128(d[1], l2);
    d[5] = _mm_xor_si128(l0, l2);
    d[6] = l2;
}

/**
 * OCB's bulk encryption fused with the AES rounds, eight blocks per
 * batch; @p first is the index of the first block, ≡ 1 (mod 8).
 * Round key 0 folds into the pre-whitening (P ^ (Offset ^ rk0)) and
 * the post-whitening into the last round (AESENCLAST(s, rk10 ^
 * Offset)), so a block costs one load, one store and a few XORs
 * beside its ten rounds.
 */
__attribute__((target("aes,sse2"))) void
hwOcbEncrypt(const std::uint8_t *rk_bytes, const AesBlock *l_table,
             const std::uint8_t *in, std::uint8_t *out,
             std::uint64_t first, std::size_t batches, AesBlock &offset,
             AesBlock &checksum)
{
    __m128i rk[11];
    for (int r = 0; r <= 10; ++r)
        rk[r] = _mm_load_si128(
            reinterpret_cast<const __m128i *>(rk_bytes + 16 * r));
    __m128i d[7];
    ocbBatchSteps(l_table, d);
    __m128i base = loadBlock(offset.data());
    __m128i sum = loadBlock(checksum.data());
    for (std::uint64_t i = first; batches > 0; --batches, i += 8) {
        const __m128i next = _mm_xor_si128(
            _mm_xor_si128(base, d[6]),
            loadBlock(l_table[std::countr_zero(i + 7)].data()));
        const __m128i pre = _mm_xor_si128(base, rk[0]);
        __m128i s[8];
        for (int b = 0; b < 8; ++b) {
            const __m128i p = loadBlock(in + 16 * b);
            sum = _mm_xor_si128(sum, p);
            s[b] = _mm_xor_si128(p, b < 7 ? _mm_xor_si128(pre, d[b])
                                          : _mm_xor_si128(next, rk[0]));
        }
        for (int r = 1; r < 10; ++r)
            for (int b = 0; b < 8; ++b)
                s[b] = _mm_aesenc_si128(s[b], rk[r]);
        const __m128i post = _mm_xor_si128(base, rk[10]);
        for (int b = 0; b < 8; ++b)
            storeBlock(out + 16 * b,
                       _mm_aesenclast_si128(
                           s[b], b < 7 ? _mm_xor_si128(post, d[b])
                                       : _mm_xor_si128(next, rk[10])));
        base = next;
        in += 8 * AesBlockSize;
        out += 8 * AesBlockSize;
    }
    storeBlock(offset.data(), base);
    storeBlock(checksum.data(), sum);
}

/**
 * hwOcbEncrypt()'s mirror on AESDEC: the equivalent-inverse schedule
 * takes the same folds, and the checksum gathers the plaintext the
 * last round yields.
 */
__attribute__((target("aes,sse2"))) void
hwOcbDecrypt(const std::uint8_t *rk_bytes, const AesBlock *l_table,
             const std::uint8_t *in, std::uint8_t *out,
             std::uint64_t first, std::size_t batches, AesBlock &offset,
             AesBlock &checksum)
{
    __m128i rk[11];
    for (int r = 0; r <= 10; ++r)
        rk[r] = _mm_load_si128(
            reinterpret_cast<const __m128i *>(rk_bytes + 16 * r));
    __m128i d[7];
    ocbBatchSteps(l_table, d);
    __m128i base = loadBlock(offset.data());
    __m128i sum = loadBlock(checksum.data());
    for (std::uint64_t i = first; batches > 0; --batches, i += 8) {
        const __m128i next = _mm_xor_si128(
            _mm_xor_si128(base, d[6]),
            loadBlock(l_table[std::countr_zero(i + 7)].data()));
        const __m128i pre = _mm_xor_si128(base, rk[0]);
        __m128i s[8];
        for (int b = 0; b < 8; ++b)
            s[b] = _mm_xor_si128(loadBlock(in + 16 * b),
                                 b < 7 ? _mm_xor_si128(pre, d[b])
                                       : _mm_xor_si128(next, rk[0]));
        for (int r = 1; r < 10; ++r)
            for (int b = 0; b < 8; ++b)
                s[b] = _mm_aesdec_si128(s[b], rk[r]);
        const __m128i post = _mm_xor_si128(base, rk[10]);
        for (int b = 0; b < 8; ++b) {
            const __m128i p = _mm_aesdeclast_si128(
                s[b], b < 7 ? _mm_xor_si128(post, d[b])
                            : _mm_xor_si128(next, rk[10]));
            sum = _mm_xor_si128(sum, p);
            storeBlock(out + 16 * b, p);
        }
        base = next;
        in += 8 * AesBlockSize;
        out += 8 * AesBlockSize;
    }
    storeBlock(offset.data(), base);
    storeBlock(checksum.data(), sum);
}

// ----- VAES tier (256-bit registers) -----------------------------------
//
// Each VAESENC advances two blocks, one per 128-bit lane, against a
// round key broadcast to both lanes; eight ymm registers keep sixteen
// blocks in flight. Every load, store and XOR in these functions is
// written with intrinsics in the function itself or in an
// always_inline helper of the same target: a call into the
// "aes,sse2" helpers above with live ymm upper halves pays an SSE/AVX
// transition each time, and a pass built on them measured 13x slower
// than the AES-NI loop.

/** The eleven round keys of @p rk_bytes, each in both lanes. */
__attribute__((target("vaes,avx2,aes"), always_inline)) inline void
vaesRoundKeys(const std::uint8_t *rk_bytes, __m256i rk[11])
{
    for (int r = 0; r <= 10; ++r)
        rk[r] = _mm256_broadcastsi128_si256(_mm_load_si128(
            reinterpret_cast<const __m128i *>(rk_bytes + 16 * r)));
}

/** Encrypt @p groups runs of sixteen blocks. */
__attribute__((target("vaes,avx2,aes"))) void
vaesEncryptBlocks(const std::uint8_t *rk_bytes, const std::uint8_t *in,
                  std::uint8_t *out, std::size_t groups)
{
    __m256i rk[11];
    vaesRoundKeys(rk_bytes, rk);
    for (; groups > 0; --groups) {
        __m256i s[8];
        for (int b = 0; b < 8; ++b)
            s[b] = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(in + 32 * b)),
                rk[0]);
        for (int r = 1; r < 10; ++r)
            for (int b = 0; b < 8; ++b)
                s[b] = _mm256_aesenc_epi128(s[b], rk[r]);
        for (int b = 0; b < 8; ++b)
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 32 * b),
                                _mm256_aesenclast_epi128(s[b], rk[10]));
        in += 16 * AesBlockSize;
        out += 16 * AesBlockSize;
    }
}

/** Decrypt @p groups runs of sixteen blocks (equivalent-inverse keys). */
__attribute__((target("vaes,avx2,aes"))) void
vaesDecryptBlocks(const std::uint8_t *rk_bytes, const std::uint8_t *in,
                  std::uint8_t *out, std::size_t groups)
{
    __m256i rk[11];
    vaesRoundKeys(rk_bytes, rk);
    for (; groups > 0; --groups) {
        __m256i s[8];
        for (int b = 0; b < 8; ++b)
            s[b] = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(in + 32 * b)),
                rk[0]);
        for (int r = 1; r < 10; ++r)
            for (int b = 0; b < 8; ++b)
                s[b] = _mm256_aesdec_epi128(s[b], rk[r]);
        for (int b = 0; b < 8; ++b)
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 32 * b),
                                _mm256_aesdeclast_epi128(s[b], rk[10]));
        in += 16 * AesBlockSize;
        out += 16 * AesBlockSize;
    }
}

/** The pass-invariant offset steps, in lane pairs: (D0, D1), (D2, D3),
 *  (D4, D5), and L2 in both lanes. */
struct VaesOffsets
{
    __m256i d01, d23, d45, l2;
};

__attribute__((target("vaes,avx2,aes"), always_inline)) inline VaesOffsets
vaesOffsetSteps(const AesBlock *l)
{
    const __m128i l0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(l[0].data()));
    const __m128i l1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(l[1].data()));
    const __m128i l2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(l[2].data()));
    const __m128i l01 = _mm_xor_si128(l0, l1);
    return {_mm256_set_m128i(l01, l0),
            _mm256_set_m128i(_mm_xor_si128(l1, l2), l1),
            _mm256_set_m128i(_mm_xor_si128(l0, l2),
                             _mm_xor_si128(l01, l2)),
            _mm256_broadcastsi128_si256(l2)};
}

/** L[ntz(@p i)] in both lanes. */
__attribute__((target("vaes,avx2,aes"), always_inline)) inline __m256i
vaesL(const AesBlock *l_table, std::uint64_t i)
{
    return _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(
            l_table[std::countr_zero(i)].data())));
}

/**
 * The offsets of one VAES pass: blocks i .. i + 15 with i ≡ 1
 * (mod 8), two batches of ocbBatchSteps(), block 2b in the low lane
 * and block 2b + 1 in the high lane of register b. With base =
 * Offset_{i-1} in both lanes, the first batch's registers are
 * base ^ (D0, D1), base ^ (D2, D3), base ^ (D4, D5) and
 * (base ^ L2, next1), where next1 = Offset_{i+7} = base ^ L2 ^
 * L[ntz(i + 7)]; the second batch repeats the pattern from next1 to
 * next2 = Offset_{i+15} with L[ntz(i + 15)]. @p base leaves as next2.
 */
__attribute__((target("vaes,avx2,aes"), always_inline)) inline void
vaesPassOffsets(const VaesOffsets &d, const AesBlock *l_table,
                std::uint64_t i, __m256i &base, __m256i off[8])
{
    const __m256i next1 =
        _mm256_xor_si256(_mm256_xor_si256(base, d.l2), vaesL(l_table, i + 7));
    const __m256i next2 = _mm256_xor_si256(_mm256_xor_si256(next1, d.l2),
                                           vaesL(l_table, i + 15));
    off[0] = _mm256_xor_si256(base, d.d01);
    off[1] = _mm256_xor_si256(base, d.d23);
    off[2] = _mm256_xor_si256(base, d.d45);
    off[3] = _mm256_blend_epi32(_mm256_xor_si256(base, d.l2), next1, 0xf0);
    off[4] = _mm256_xor_si256(next1, d.d01);
    off[5] = _mm256_xor_si256(next1, d.d23);
    off[6] = _mm256_xor_si256(next1, d.d45);
    off[7] = _mm256_blend_epi32(_mm256_xor_si256(next1, d.l2), next2, 0xf0);
    base = next2;
}

/**
 * The offset entering a VAES pass loop, Offset_0 ^ rk0, in both
 * lanes: the offsets vaesPassOffsets() derives from it then carry
 * round key 0, so a block's pre-whitening is one XOR.
 */
__attribute__((target("vaes,avx2,aes"), always_inline)) inline __m256i
vaesKeyedBase(const AesBlock &offset, __m256i rk0)
{
    return _mm256_xor_si256(
        _mm256_broadcastsi128_si256(_mm_loadu_si128(
            reinterpret_cast<const __m128i *>(offset.data()))),
        rk0);
}

/** The entry checksum in the low lane of the accumulator. */
__attribute__((target("vaes,avx2,aes"), always_inline)) inline __m256i
vaesChecksum(const AesBlock &checksum)
{
    return _mm256_set_m128i(
        _mm_setzero_si128(),
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(checksum.data())));
}

/** Strip rk0 from the offset and fold the checksum's lanes. */
__attribute__((target("vaes,avx2,aes"), always_inline)) inline void
vaesStoreOcbState(__m256i base, __m256i sum, __m256i rk0,
                  AesBlock &offset, AesBlock &checksum)
{
    _mm_storeu_si128(reinterpret_cast<__m128i *>(offset.data()),
                     _mm256_castsi256_si128(_mm256_xor_si256(base, rk0)));
    _mm_storeu_si128(reinterpret_cast<__m128i *>(checksum.data()),
                     _mm_xor_si128(_mm256_castsi256_si128(sum),
                                   _mm256_extracti128_si256(sum, 1)));
}

/**
 * hwOcbEncrypt() on VAES: @p passes passes of sixteen blocks from
 * block 1. The offsets carry round key 0 (vaesKeyedBase()), so a
 * block's pre-whitening is P ^ (Offset ^ rk0) and its last round
 * AESENCLAST(s, (Offset ^ rk0) ^ (rk0 ^ rk10)); the checksum is one
 * ymm accumulator whose lanes fold together at the end.
 */
__attribute__((target("vaes,avx2,aes"))) void
vaesOcbEncrypt(const std::uint8_t *rk_bytes, const AesBlock *l_table,
               const std::uint8_t *in, std::uint8_t *out,
               std::size_t passes, AesBlock &offset, AesBlock &checksum)
{
    __m256i rk[11];
    vaesRoundKeys(rk_bytes, rk);
    const __m256i rk0_10 = _mm256_xor_si256(rk[0], rk[10]);
    const VaesOffsets d = vaesOffsetSteps(l_table);
    __m256i base = vaesKeyedBase(offset, rk[0]);
    __m256i sum = vaesChecksum(checksum);
    for (std::uint64_t i = 1; passes > 0; --passes, i += 16) {
        __m256i off[8];
        vaesPassOffsets(d, l_table, i, base, off);
        __m256i s[8];
        for (int b = 0; b < 8; ++b) {
            const __m256i p = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(in + 32 * b));
            sum = _mm256_xor_si256(sum, p);
            s[b] = _mm256_xor_si256(p, off[b]);
        }
        for (int r = 1; r < 10; ++r)
            for (int b = 0; b < 8; ++b)
                s[b] = _mm256_aesenc_epi128(s[b], rk[r]);
        for (int b = 0; b < 8; ++b)
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(out + 32 * b),
                _mm256_aesenclast_epi128(s[b],
                                         _mm256_xor_si256(off[b], rk0_10)));
        in += 16 * AesBlockSize;
        out += 16 * AesBlockSize;
    }
    vaesStoreOcbState(base, sum, rk[0], offset, checksum);
}

/** vaesOcbEncrypt()'s mirror on VAESDEC, as hwOcbDecrypt() is. */
__attribute__((target("vaes,avx2,aes"))) void
vaesOcbDecrypt(const std::uint8_t *rk_bytes, const AesBlock *l_table,
               const std::uint8_t *in, std::uint8_t *out,
               std::size_t passes, AesBlock &offset, AesBlock &checksum)
{
    __m256i rk[11];
    vaesRoundKeys(rk_bytes, rk);
    const __m256i rk0_10 = _mm256_xor_si256(rk[0], rk[10]);
    const VaesOffsets d = vaesOffsetSteps(l_table);
    __m256i base = vaesKeyedBase(offset, rk[0]);
    __m256i sum = vaesChecksum(checksum);
    for (std::uint64_t i = 1; passes > 0; --passes, i += 16) {
        __m256i off[8];
        vaesPassOffsets(d, l_table, i, base, off);
        __m256i s[8];
        for (int b = 0; b < 8; ++b)
            s[b] = _mm256_xor_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(in + 32 * b)),
                off[b]);
        for (int r = 1; r < 10; ++r)
            for (int b = 0; b < 8; ++b)
                s[b] = _mm256_aesdec_epi128(s[b], rk[r]);
        for (int b = 0; b < 8; ++b) {
            const __m256i p = _mm256_aesdeclast_epi128(
                s[b], _mm256_xor_si256(off[b], rk0_10));
            sum = _mm256_xor_si256(sum, p);
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + 32 * b),
                                p);
        }
        in += 16 * AesBlockSize;
        out += 16 * AesBlockSize;
    }
    vaesStoreOcbState(base, sum, rk[0], offset, checksum);
}

#endif  // HIX_AES_HW

}  // namespace

bool
Aes128::hwSupported()
{
#ifdef HIX_AES_HW
    return __builtin_cpu_supports("aes") != 0;
#else
    return false;
#endif
}

bool
Aes128::vaesSupported()
{
#ifdef HIX_AES_HW
    // CPUID leaf 7 ECX bit 9 (VAES) and EBX bit 5 (AVX2), and the OS
    // saving ymm state: leaf 1 ECX OSXSAVE, then XCR0 bits 1-2 (xmm
    // and ymm) through XGETBV. Read directly, as Sha256::hwSupported()
    // does, so every compiler the project builds with accepts it.
    static const bool supported = [] {
        unsigned a = 0, b = 0, c = 0, d = 0;
        if (!hwSupported() || !__get_cpuid(1, &a, &b, &c, &d) ||
            !(c & bit_OSXSAVE))
            return false;
        unsigned xcr0 = 0, xcr0_hi = 0;
        __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_hi) : "c"(0));
        if ((xcr0 & 0x6) != 0x6)
            return false;
        return __get_cpuid_count(7, 0, &a, &b, &c, &d) != 0 &&
               (b & bit_AVX2) != 0 && (c & bit_VAES) != 0;
    }();
    return supported;
#else
    return false;
#endif
}

Aes128::Aes128(const AesKey &key, AesEngine engine) : engine_(engine)
{
    // FIPS 197 key expansion for Nk = 4, Nr = 10.
    for (int i = 0; i < 4; ++i) {
        enc_keys_[i] = (std::uint32_t(key[4 * i]) << 24) |
                       (std::uint32_t(key[4 * i + 1]) << 16) |
                       (std::uint32_t(key[4 * i + 2]) << 8) |
                       std::uint32_t(key[4 * i + 3]);
    }
    std::uint32_t rcon = 0x01000000;
    for (int i = 4; i < 4 * (NumRounds + 1); ++i) {
        std::uint32_t temp = enc_keys_[i - 1];
        if (i % 4 == 0) {
            temp = subWord(rotWord(temp)) ^ rcon;
            rcon = std::uint32_t(xtime(std::uint8_t(rcon >> 24))) << 24;
        }
        enc_keys_[i] = enc_keys_[i - 4] ^ temp;
    }

    // Equivalent inverse cipher: reverse the round order and push the
    // InvMixColumns through the middle round keys so decryption can
    // use T-tables in the same shape as encryption.
    for (int round = 0; round <= NumRounds; ++round) {
        for (int c = 0; c < 4; ++c) {
            std::uint32_t w = enc_keys_[4 * (NumRounds - round) + c];
            if (round != 0 && round != NumRounds)
                w = invMixWord(w);
            dec_keys_[4 * round + c] = w;
        }
    }

    // Serialize both schedules into the byte order AES instructions
    // consume; harmless (and unused) on non-AES-NI hosts.
    for (int i = 0; i < 4 * (NumRounds + 1); ++i) {
        storeBE32(enc_rk_bytes_.data() + 4 * i, enc_keys_[i]);
        storeBE32(dec_rk_bytes_.data() + 4 * i, dec_keys_[i]);
    }
    use_hw_ = (engine_ == AesEngine::Fast || engine_ == AesEngine::AesNi) &&
              hwSupported();
    use_vaes_ = engine_ == AesEngine::Fast && use_hw_ && vaesSupported();
}

// ----- Fast (T-table) engine -------------------------------------------

#define HIX_AES_ENC_ROUND(d0, d1, d2, d3, s0, s1, s2, s3, rk)            \
    do {                                                                 \
        d0 = tables.te[0][(s0) >> 24] ^                                  \
             tables.te[1][((s1) >> 16) & 0xff] ^                         \
             tables.te[2][((s2) >> 8) & 0xff] ^                          \
             tables.te[3][(s3) & 0xff] ^ (rk)[0];                        \
        d1 = tables.te[0][(s1) >> 24] ^                                  \
             tables.te[1][((s2) >> 16) & 0xff] ^                         \
             tables.te[2][((s3) >> 8) & 0xff] ^                          \
             tables.te[3][(s0) & 0xff] ^ (rk)[1];                        \
        d2 = tables.te[0][(s2) >> 24] ^                                  \
             tables.te[1][((s3) >> 16) & 0xff] ^                         \
             tables.te[2][((s0) >> 8) & 0xff] ^                          \
             tables.te[3][(s1) & 0xff] ^ (rk)[2];                        \
        d3 = tables.te[0][(s3) >> 24] ^                                  \
             tables.te[1][((s0) >> 16) & 0xff] ^                         \
             tables.te[2][((s1) >> 8) & 0xff] ^                          \
             tables.te[3][(s2) & 0xff] ^ (rk)[3];                        \
    } while (0)

#define HIX_AES_DEC_ROUND(d0, d1, d2, d3, s0, s1, s2, s3, rk)            \
    do {                                                                 \
        d0 = tables.td[0][(s0) >> 24] ^                                  \
             tables.td[1][((s3) >> 16) & 0xff] ^                         \
             tables.td[2][((s2) >> 8) & 0xff] ^                          \
             tables.td[3][(s1) & 0xff] ^ (rk)[0];                        \
        d1 = tables.td[0][(s1) >> 24] ^                                  \
             tables.td[1][((s0) >> 16) & 0xff] ^                         \
             tables.td[2][((s3) >> 8) & 0xff] ^                          \
             tables.td[3][(s2) & 0xff] ^ (rk)[1];                        \
        d2 = tables.td[0][(s2) >> 24] ^                                  \
             tables.td[1][((s1) >> 16) & 0xff] ^                         \
             tables.td[2][((s0) >> 8) & 0xff] ^                          \
             tables.td[3][(s3) & 0xff] ^ (rk)[2];                        \
        d3 = tables.td[0][(s3) >> 24] ^                                  \
             tables.td[1][((s2) >> 16) & 0xff] ^                         \
             tables.td[2][((s1) >> 8) & 0xff] ^                          \
             tables.td[3][(s0) & 0xff] ^ (rk)[3];                        \
    } while (0)

void
Aes128::encryptBlockFast(const std::uint8_t *in, std::uint8_t *out) const
{
    const std::uint32_t *rk = enc_keys_.data();
    std::uint32_t s0 = loadBE32(in) ^ rk[0];
    std::uint32_t s1 = loadBE32(in + 4) ^ rk[1];
    std::uint32_t s2 = loadBE32(in + 8) ^ rk[2];
    std::uint32_t s3 = loadBE32(in + 12) ^ rk[3];
    std::uint32_t t0, t1, t2, t3;
    for (int round = 1; round < NumRounds; ++round) {
        HIX_AES_ENC_ROUND(t0, t1, t2, t3, s0, s1, s2, s3,
                          rk + 4 * round);
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }
    const std::uint32_t *lk = rk + 4 * NumRounds;
    const auto *sb = tables.sbox;
    std::uint32_t o0 = (std::uint32_t(sb[s0 >> 24]) << 24) |
                       (std::uint32_t(sb[(s1 >> 16) & 0xff]) << 16) |
                       (std::uint32_t(sb[(s2 >> 8) & 0xff]) << 8) |
                       std::uint32_t(sb[s3 & 0xff]);
    std::uint32_t o1 = (std::uint32_t(sb[s1 >> 24]) << 24) |
                       (std::uint32_t(sb[(s2 >> 16) & 0xff]) << 16) |
                       (std::uint32_t(sb[(s3 >> 8) & 0xff]) << 8) |
                       std::uint32_t(sb[s0 & 0xff]);
    std::uint32_t o2 = (std::uint32_t(sb[s2 >> 24]) << 24) |
                       (std::uint32_t(sb[(s3 >> 16) & 0xff]) << 16) |
                       (std::uint32_t(sb[(s0 >> 8) & 0xff]) << 8) |
                       std::uint32_t(sb[s1 & 0xff]);
    std::uint32_t o3 = (std::uint32_t(sb[s3 >> 24]) << 24) |
                       (std::uint32_t(sb[(s0 >> 16) & 0xff]) << 16) |
                       (std::uint32_t(sb[(s1 >> 8) & 0xff]) << 8) |
                       std::uint32_t(sb[s2 & 0xff]);
    storeBE32(out, o0 ^ lk[0]);
    storeBE32(out + 4, o1 ^ lk[1]);
    storeBE32(out + 8, o2 ^ lk[2]);
    storeBE32(out + 12, o3 ^ lk[3]);
}

void
Aes128::decryptBlockFast(const std::uint8_t *in, std::uint8_t *out) const
{
    const std::uint32_t *rk = dec_keys_.data();
    std::uint32_t s0 = loadBE32(in) ^ rk[0];
    std::uint32_t s1 = loadBE32(in + 4) ^ rk[1];
    std::uint32_t s2 = loadBE32(in + 8) ^ rk[2];
    std::uint32_t s3 = loadBE32(in + 12) ^ rk[3];
    std::uint32_t t0, t1, t2, t3;
    for (int round = 1; round < NumRounds; ++round) {
        HIX_AES_DEC_ROUND(t0, t1, t2, t3, s0, s1, s2, s3,
                          rk + 4 * round);
        s0 = t0;
        s1 = t1;
        s2 = t2;
        s3 = t3;
    }
    const std::uint32_t *lk = rk + 4 * NumRounds;
    const auto *is = tables.inv;
    std::uint32_t o0 = (std::uint32_t(is[s0 >> 24]) << 24) |
                       (std::uint32_t(is[(s3 >> 16) & 0xff]) << 16) |
                       (std::uint32_t(is[(s2 >> 8) & 0xff]) << 8) |
                       std::uint32_t(is[s1 & 0xff]);
    std::uint32_t o1 = (std::uint32_t(is[s1 >> 24]) << 24) |
                       (std::uint32_t(is[(s0 >> 16) & 0xff]) << 16) |
                       (std::uint32_t(is[(s3 >> 8) & 0xff]) << 8) |
                       std::uint32_t(is[s2 & 0xff]);
    std::uint32_t o2 = (std::uint32_t(is[s2 >> 24]) << 24) |
                       (std::uint32_t(is[(s1 >> 16) & 0xff]) << 16) |
                       (std::uint32_t(is[(s0 >> 8) & 0xff]) << 8) |
                       std::uint32_t(is[s3 & 0xff]);
    std::uint32_t o3 = (std::uint32_t(is[s3 >> 24]) << 24) |
                       (std::uint32_t(is[(s2 >> 16) & 0xff]) << 16) |
                       (std::uint32_t(is[(s1 >> 8) & 0xff]) << 8) |
                       std::uint32_t(is[s0 & 0xff]);
    storeBE32(out, o0 ^ lk[0]);
    storeBE32(out + 4, o1 ^ lk[1]);
    storeBE32(out + 8, o2 ^ lk[2]);
    storeBE32(out + 12, o3 ^ lk[3]);
}

void
Aes128::encryptBlocks4(const std::uint8_t *in, std::uint8_t *out) const
{
    // Four independent states interleaved so the four T-table lookup
    // chains overlap instead of serializing on one block's
    // round-to-round dependency.
    const std::uint32_t *rk = enc_keys_.data();
    std::uint32_t s[16], t[16];
    for (int b = 0; b < 4; ++b)
        for (int w = 0; w < 4; ++w)
            s[4 * b + w] = loadBE32(in + 16 * b + 4 * w) ^ rk[w];
    for (int round = 1; round < NumRounds; ++round) {
        const std::uint32_t *k = rk + 4 * round;
        for (int b = 0; b < 4; ++b)
            HIX_AES_ENC_ROUND(t[4 * b + 0], t[4 * b + 1], t[4 * b + 2],
                              t[4 * b + 3], s[4 * b + 0], s[4 * b + 1],
                              s[4 * b + 2], s[4 * b + 3], k);
        std::memcpy(s, t, sizeof(s));
    }
    const std::uint32_t *lk = rk + 4 * NumRounds;
    const auto *sb = tables.sbox;
    for (int b = 0; b < 4; ++b) {
        const std::uint32_t s0 = s[4 * b], s1 = s[4 * b + 1],
                            s2 = s[4 * b + 2], s3 = s[4 * b + 3];
        storeBE32(out + 16 * b,
                  ((std::uint32_t(sb[s0 >> 24]) << 24) |
                   (std::uint32_t(sb[(s1 >> 16) & 0xff]) << 16) |
                   (std::uint32_t(sb[(s2 >> 8) & 0xff]) << 8) |
                   std::uint32_t(sb[s3 & 0xff])) ^
                      lk[0]);
        storeBE32(out + 16 * b + 4,
                  ((std::uint32_t(sb[s1 >> 24]) << 24) |
                   (std::uint32_t(sb[(s2 >> 16) & 0xff]) << 16) |
                   (std::uint32_t(sb[(s3 >> 8) & 0xff]) << 8) |
                   std::uint32_t(sb[s0 & 0xff])) ^
                      lk[1]);
        storeBE32(out + 16 * b + 8,
                  ((std::uint32_t(sb[s2 >> 24]) << 24) |
                   (std::uint32_t(sb[(s3 >> 16) & 0xff]) << 16) |
                   (std::uint32_t(sb[(s0 >> 8) & 0xff]) << 8) |
                   std::uint32_t(sb[s1 & 0xff])) ^
                      lk[2]);
        storeBE32(out + 16 * b + 12,
                  ((std::uint32_t(sb[s3 >> 24]) << 24) |
                   (std::uint32_t(sb[(s0 >> 16) & 0xff]) << 16) |
                   (std::uint32_t(sb[(s1 >> 8) & 0xff]) << 8) |
                   std::uint32_t(sb[s2 & 0xff])) ^
                      lk[3]);
    }
}

void
Aes128::decryptBlocks4(const std::uint8_t *in, std::uint8_t *out) const
{
    const std::uint32_t *rk = dec_keys_.data();
    std::uint32_t s[16], t[16];
    for (int b = 0; b < 4; ++b)
        for (int w = 0; w < 4; ++w)
            s[4 * b + w] = loadBE32(in + 16 * b + 4 * w) ^ rk[w];
    for (int round = 1; round < NumRounds; ++round) {
        const std::uint32_t *k = rk + 4 * round;
        for (int b = 0; b < 4; ++b)
            HIX_AES_DEC_ROUND(t[4 * b + 0], t[4 * b + 1], t[4 * b + 2],
                              t[4 * b + 3], s[4 * b + 0], s[4 * b + 1],
                              s[4 * b + 2], s[4 * b + 3], k);
        std::memcpy(s, t, sizeof(s));
    }
    const std::uint32_t *lk = rk + 4 * NumRounds;
    const auto *is = tables.inv;
    for (int b = 0; b < 4; ++b) {
        const std::uint32_t s0 = s[4 * b], s1 = s[4 * b + 1],
                            s2 = s[4 * b + 2], s3 = s[4 * b + 3];
        storeBE32(out + 16 * b,
                  ((std::uint32_t(is[s0 >> 24]) << 24) |
                   (std::uint32_t(is[(s3 >> 16) & 0xff]) << 16) |
                   (std::uint32_t(is[(s2 >> 8) & 0xff]) << 8) |
                   std::uint32_t(is[s1 & 0xff])) ^
                      lk[0]);
        storeBE32(out + 16 * b + 4,
                  ((std::uint32_t(is[s1 >> 24]) << 24) |
                   (std::uint32_t(is[(s0 >> 16) & 0xff]) << 16) |
                   (std::uint32_t(is[(s3 >> 8) & 0xff]) << 8) |
                   std::uint32_t(is[s2 & 0xff])) ^
                      lk[1]);
        storeBE32(out + 16 * b + 8,
                  ((std::uint32_t(is[s2 >> 24]) << 24) |
                   (std::uint32_t(is[(s1 >> 16) & 0xff]) << 16) |
                   (std::uint32_t(is[(s0 >> 8) & 0xff]) << 8) |
                   std::uint32_t(is[s3 & 0xff])) ^
                      lk[2]);
        storeBE32(out + 16 * b + 12,
                  ((std::uint32_t(is[s3 >> 24]) << 24) |
                   (std::uint32_t(is[(s2 >> 16) & 0xff]) << 16) |
                   (std::uint32_t(is[(s1 >> 8) & 0xff]) << 8) |
                   std::uint32_t(is[s0 & 0xff])) ^
                      lk[3]);
    }
}

// ----- Reference (scalar) engine ---------------------------------------

void
Aes128::encryptBlockRef(const std::uint8_t *in, std::uint8_t *out) const
{
    std::uint8_t state[16];
    std::memcpy(state, in, 16);

    addRoundKey(state, &enc_keys_[0]);
    for (int round = 1; round < NumRounds; ++round) {
        subBytes(state);
        shiftRows(state);
        mixColumns(state);
        addRoundKey(state, &enc_keys_[4 * round]);
    }
    subBytes(state);
    shiftRows(state);
    addRoundKey(state, &enc_keys_[4 * NumRounds]);

    std::memcpy(out, state, 16);
}

void
Aes128::decryptBlockRef(const std::uint8_t *in, std::uint8_t *out) const
{
    std::uint8_t state[16];
    std::memcpy(state, in, 16);

    addRoundKey(state, &enc_keys_[4 * NumRounds]);
    for (int round = NumRounds - 1; round >= 1; --round) {
        invShiftRows(state);
        invSubBytes(state);
        addRoundKey(state, &enc_keys_[4 * round]);
        invMixColumns(state);
    }
    invShiftRows(state);
    invSubBytes(state);
    addRoundKey(state, &enc_keys_[0]);

    std::memcpy(out, state, 16);
}

// ----- Public dispatch -------------------------------------------------

void
Aes128::encryptBlock(const std::uint8_t *in, std::uint8_t *out) const
{
#ifdef HIX_AES_HW
    if (use_hw_) {
        hwEncryptBlocks(enc_rk_bytes_.data(), in, out, 1);
        return;
    }
#endif
    if (engine_ == AesEngine::Reference)
        encryptBlockRef(in, out);
    else
        encryptBlockFast(in, out);
}

void
Aes128::decryptBlock(const std::uint8_t *in, std::uint8_t *out) const
{
#ifdef HIX_AES_HW
    if (use_hw_) {
        hwDecryptBlocks(dec_rk_bytes_.data(), in, out, 1);
        return;
    }
#endif
    if (engine_ == AesEngine::Reference)
        decryptBlockRef(in, out);
    else
        decryptBlockFast(in, out);
}

void
Aes128::encryptBlocks(const std::uint8_t *in, std::uint8_t *out,
                      std::size_t n) const
{
#ifdef HIX_AES_HW
    if (use_hw_) {
        if (use_vaes_ && n >= 16) {
            vaesEncryptBlocks(enc_rk_bytes_.data(), in, out, n / 16);
            in += n / 16 * 16 * AesBlockSize;
            out += n / 16 * 16 * AesBlockSize;
            n %= 16;
        }
        hwEncryptBlocks(enc_rk_bytes_.data(), in, out, n);
        return;
    }
#endif
    if (engine_ != AesEngine::Reference) {
        while (n >= 4) {
            encryptBlocks4(in, out);
            in += 4 * AesBlockSize;
            out += 4 * AesBlockSize;
            n -= 4;
        }
    }
    for (; n > 0; --n) {
        encryptBlock(in, out);
        in += AesBlockSize;
        out += AesBlockSize;
    }
}

void
Aes128::decryptBlocks(const std::uint8_t *in, std::uint8_t *out,
                      std::size_t n) const
{
#ifdef HIX_AES_HW
    if (use_hw_) {
        if (use_vaes_ && n >= 16) {
            vaesDecryptBlocks(dec_rk_bytes_.data(), in, out, n / 16);
            in += n / 16 * 16 * AesBlockSize;
            out += n / 16 * 16 * AesBlockSize;
            n %= 16;
        }
        hwDecryptBlocks(dec_rk_bytes_.data(), in, out, n);
        return;
    }
#endif
    if (engine_ != AesEngine::Reference) {
        while (n >= 4) {
            decryptBlocks4(in, out);
            in += 4 * AesBlockSize;
            out += 4 * AesBlockSize;
            n -= 4;
        }
    }
    for (; n > 0; --n) {
        decryptBlock(in, out);
        in += AesBlockSize;
        out += AesBlockSize;
    }
}

void
Aes128::ocbEncryptBatches(const AesBlock *l_table, const std::uint8_t *in,
                          std::uint8_t *out, std::size_t batches,
                          AesBlock &offset, AesBlock &checksum) const
{
#ifdef HIX_AES_HW
    if (use_hw_) {
        // VAES takes the batches in pairs; an odd last batch starts at
        // block 16·passes + 1 on the AES-NI loop.
        std::uint64_t first = 1;
        if (use_vaes_ && batches >= 2) {
            const std::size_t passes = batches / 2;
            vaesOcbEncrypt(enc_rk_bytes_.data(), l_table, in, out, passes,
                           offset, checksum);
            in += passes * 16 * AesBlockSize;
            out += passes * 16 * AesBlockSize;
            first += passes * 16;
            batches %= 2;
        }
        if (batches > 0)
            hwOcbEncrypt(enc_rk_bytes_.data(), l_table, in, out, first,
                         batches, offset, checksum);
        return;
    }
#endif
    hix_panic("fused OCB pass needs AES instructions");
}

void
Aes128::ocbDecryptBatches(const AesBlock *l_table, const std::uint8_t *in,
                          std::uint8_t *out, std::size_t batches,
                          AesBlock &offset, AesBlock &checksum) const
{
#ifdef HIX_AES_HW
    if (use_hw_) {
        // VAES takes the batches in pairs; an odd last batch starts at
        // block 16·passes + 1 on the AES-NI loop.
        std::uint64_t first = 1;
        if (use_vaes_ && batches >= 2) {
            const std::size_t passes = batches / 2;
            vaesOcbDecrypt(dec_rk_bytes_.data(), l_table, in, out, passes,
                           offset, checksum);
            in += passes * 16 * AesBlockSize;
            out += passes * 16 * AesBlockSize;
            first += passes * 16;
            batches %= 2;
        }
        if (batches > 0)
            hwOcbDecrypt(dec_rk_bytes_.data(), l_table, in, out, first,
                         batches, offset, checksum);
        return;
    }
#endif
    hix_panic("fused OCB pass needs AES instructions");
}

}  // namespace hix::crypto
