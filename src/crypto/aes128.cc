#include "crypto/aes128.h"

#include <bit>
#include <cstring>

#include "common/byte_utils.h"
#include "common/logging.h"

// AES-NI path: compiled whenever the compiler supports per-function
// target attributes (GCC/Clang on x86-64); selected at run time via
// cpuid so the binary still runs on hosts without the extension.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HIX_AES_HW 1
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
 * batch. Round key 0 folds into the pre-whitening (P ^ (Offset ^
 * rk0)) and the post-whitening into the last round
 * (AESENCLAST(s, rk10 ^ Offset)), so a block costs one load, one
 * store and a few XORs beside its ten rounds.
 */
__attribute__((target("aes,sse2"))) void
hwOcbEncrypt(const std::uint8_t *rk_bytes, const AesBlock *l_table,
             const std::uint8_t *in, std::uint8_t *out,
             std::size_t batches, AesBlock &offset, AesBlock &checksum)
{
    __m128i rk[11];
    for (int r = 0; r <= 10; ++r)
        rk[r] = _mm_load_si128(
            reinterpret_cast<const __m128i *>(rk_bytes + 16 * r));
    __m128i d[7];
    ocbBatchSteps(l_table, d);
    __m128i base = loadBlock(offset.data());
    __m128i sum = loadBlock(checksum.data());
    for (std::uint64_t i = 1; batches > 0; --batches, i += 8) {
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
             std::size_t batches, AesBlock &offset, AesBlock &checksum)
{
    __m128i rk[11];
    for (int r = 0; r <= 10; ++r)
        rk[r] = _mm_load_si128(
            reinterpret_cast<const __m128i *>(rk_bytes + 16 * r));
    __m128i d[7];
    ocbBatchSteps(l_table, d);
    __m128i base = loadBlock(offset.data());
    __m128i sum = loadBlock(checksum.data());
    for (std::uint64_t i = 1; batches > 0; --batches, i += 8) {
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
    use_hw_ = engine_ == AesEngine::Fast && hwSupported();
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
        hwOcbEncrypt(enc_rk_bytes_.data(), l_table, in, out, batches,
                     offset, checksum);
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
        hwOcbDecrypt(dec_rk_bytes_.data(), l_table, in, out, batches,
                     offset, checksum);
        return;
    }
#endif
    hix_panic("fused OCB pass needs AES instructions");
}

}  // namespace hix::crypto
