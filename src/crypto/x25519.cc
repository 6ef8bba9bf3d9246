#include "crypto/x25519.h"

#include <cstring>

namespace hix::crypto
{

namespace
{

/**
 * Field element of GF(2^255 - 19) in five 51-bit limbs. All routines
 * keep limbs comfortably below 2^52 at rest so 128-bit products never
 * overflow.
 */
struct Fe
{
    std::uint64_t v[5];
};

constexpr std::uint64_t Mask51 = (1ull << 51) - 1;

Fe
feFromBytes(const std::uint8_t s[32])
{
    auto load64 = [&](int i) {
        std::uint64_t r = 0;
        for (int b = 7; b >= 0; --b)
            r = (r << 8) | s[i + b];
        return r;
    };
    Fe h;
    h.v[0] = load64(0) & Mask51;
    h.v[1] = (load64(6) >> 3) & Mask51;
    h.v[2] = (load64(12) >> 6) & Mask51;
    h.v[3] = (load64(19) >> 1) & Mask51;
    h.v[4] = (load64(24) >> 12) & Mask51;
    return h;
}

void
feToBytes(std::uint8_t s[32], const Fe &f)
{
    // Fully reduce mod p.
    std::uint64_t t[5];
    for (int i = 0; i < 5; ++i)
        t[i] = f.v[i];

    for (int pass = 0; pass < 3; ++pass) {
        t[1] += t[0] >> 51;
        t[0] &= Mask51;
        t[2] += t[1] >> 51;
        t[1] &= Mask51;
        t[3] += t[2] >> 51;
        t[2] &= Mask51;
        t[4] += t[3] >> 51;
        t[3] &= Mask51;
        t[0] += 19 * (t[4] >> 51);
        t[4] &= Mask51;
    }

    // Now 0 <= t < 2p; subtract p if needed via add 19 trick.
    std::uint64_t u[5];
    u[0] = t[0] + 19;
    u[1] = t[1] + (u[0] >> 51);
    u[0] &= Mask51;
    u[2] = t[2] + (u[1] >> 51);
    u[1] &= Mask51;
    u[3] = t[3] + (u[2] >> 51);
    u[2] &= Mask51;
    u[4] = t[4] + (u[3] >> 51);
    u[3] &= Mask51;
    // If u[4] overflowed 51 bits, t >= p; use t - p = u mod 2^255.
    const std::uint64_t carry = u[4] >> 51;
    u[4] &= Mask51;
    std::uint64_t mask = carry ? ~0ull : 0ull;
    std::uint64_t r[5];
    for (int i = 0; i < 5; ++i)
        r[i] = (u[i] & mask) | (t[i] & ~mask);

    std::uint8_t out[32] = {0};
    std::uint64_t acc = 0;
    int acc_bits = 0;
    int idx = 0;
    for (int limb = 0; limb < 5; ++limb) {
        acc |= r[limb] << acc_bits;
        acc_bits += 51;
        while (acc_bits >= 8 && idx < 32) {
            out[idx++] = static_cast<std::uint8_t>(acc);
            acc >>= 8;
            acc_bits -= 8;
        }
    }
    if (idx < 32)
        out[idx] = static_cast<std::uint8_t>(acc);
    std::memcpy(s, out, 32);
}

Fe
feAdd(const Fe &a, const Fe &b)
{
    Fe r;
    for (int i = 0; i < 5; ++i)
        r.v[i] = a.v[i] + b.v[i];
    return r;
}

Fe
feSub(const Fe &a, const Fe &b)
{
    // a + 2p - b keeps limbs positive.
    Fe r;
    r.v[0] = a.v[0] + 0xfffffffffffdaull - b.v[0];
    r.v[1] = a.v[1] + 0xffffffffffffeull - b.v[1];
    r.v[2] = a.v[2] + 0xffffffffffffeull - b.v[2];
    r.v[3] = a.v[3] + 0xffffffffffffeull - b.v[3];
    r.v[4] = a.v[4] + 0xffffffffffffeull - b.v[4];
    return r;
}

Fe
feCarry(const Fe &a)
{
    Fe r = a;
    r.v[1] += r.v[0] >> 51;
    r.v[0] &= Mask51;
    r.v[2] += r.v[1] >> 51;
    r.v[1] &= Mask51;
    r.v[3] += r.v[2] >> 51;
    r.v[2] &= Mask51;
    r.v[4] += r.v[3] >> 51;
    r.v[3] &= Mask51;
    r.v[0] += 19 * (r.v[4] >> 51);
    r.v[4] &= Mask51;
    r.v[1] += r.v[0] >> 51;
    r.v[0] &= Mask51;
    return r;
}

using U128 = unsigned __int128;

/**
 * Carry the five 128-bit column sums of a product into 51-bit limbs,
 * folding the top carry back in times 19 (2^255 = 19 mod p).
 */
Fe
feReduce(U128 t0, U128 t1, U128 t2, U128 t3, U128 t4)
{
    Fe r;
    std::uint64_t c;
    r.v[0] = (std::uint64_t)t0 & Mask51;
    c = (std::uint64_t)(t0 >> 51);
    t1 += c;
    r.v[1] = (std::uint64_t)t1 & Mask51;
    c = (std::uint64_t)(t1 >> 51);
    t2 += c;
    r.v[2] = (std::uint64_t)t2 & Mask51;
    c = (std::uint64_t)(t2 >> 51);
    t3 += c;
    r.v[3] = (std::uint64_t)t3 & Mask51;
    c = (std::uint64_t)(t3 >> 51);
    t4 += c;
    r.v[4] = (std::uint64_t)t4 & Mask51;
    c = (std::uint64_t)(t4 >> 51);
    r.v[0] += c * 19;
    r.v[1] += r.v[0] >> 51;
    r.v[0] &= Mask51;
    return r;
}

Fe
feMul(const Fe &a, const Fe &b)
{
    const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2],
                        a3 = a.v[3], a4 = a.v[4];
    const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2],
                        b3 = b.v[3], b4 = b.v[4];
    const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19,
                        b3_19 = b3 * 19, b4_19 = b4 * 19;

    U128 t0 = (U128)a0 * b0 + (U128)a1 * b4_19 + (U128)a2 * b3_19 +
              (U128)a3 * b2_19 + (U128)a4 * b1_19;
    U128 t1 = (U128)a0 * b1 + (U128)a1 * b0 + (U128)a2 * b4_19 +
              (U128)a3 * b3_19 + (U128)a4 * b2_19;
    U128 t2 = (U128)a0 * b2 + (U128)a1 * b1 + (U128)a2 * b0 +
              (U128)a3 * b4_19 + (U128)a4 * b3_19;
    U128 t3 = (U128)a0 * b3 + (U128)a1 * b2 + (U128)a2 * b1 +
              (U128)a3 * b0 + (U128)a4 * b4_19;
    U128 t4 = (U128)a0 * b4 + (U128)a1 * b3 + (U128)a2 * b2 +
              (U128)a3 * b1 + (U128)a4 * b0;

    return feReduce(t0, t1, t2, t3, t4);
}

/**
 * feMul(a, a) with the symmetric products formed once: the same five
 * exact 128-bit column sums from 15 products instead of 25, through
 * the same feReduce(), so the limbs are identical.
 */
Fe
feSquare(const Fe &a)
{
    const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2],
                        a3 = a.v[3], a4 = a.v[4];
    const std::uint64_t d0 = 2 * a0, d1 = 2 * a1, d2 = 2 * a2,
                        d3 = 2 * a3;
    const std::uint64_t a3_19 = a3 * 19, a4_19 = a4 * 19;

    U128 t0 = (U128)a0 * a0 + (U128)d1 * a4_19 + (U128)d2 * a3_19;
    U128 t1 = (U128)d0 * a1 + (U128)d2 * a4_19 + (U128)a3 * a3_19;
    U128 t2 = (U128)d0 * a2 + (U128)a1 * a1 + (U128)d3 * a4_19;
    U128 t3 = (U128)d0 * a3 + (U128)d1 * a2 + (U128)a4 * a4_19;
    U128 t4 = (U128)d0 * a4 + (U128)d1 * a3 + (U128)a2 * a2;

    return feReduce(t0, t1, t2, t3, t4);
}

/** @p a squared @p n times. */
Fe
feSquareTimes(Fe a, int n)
{
    for (int i = 0; i < n; ++i)
        a = feSquare(a);
    return a;
}

Fe
feMul121665(const Fe &a)
{
    Fe r;
    U128 t[5];
    for (int i = 0; i < 5; ++i)
        t[i] = (U128)a.v[i] * 121665;
    std::uint64_t c = 0;
    for (int i = 0; i < 5; ++i) {
        t[i] += c;
        r.v[i] = (std::uint64_t)t[i] & Mask51;
        c = (std::uint64_t)(t[i] >> 51);
    }
    r.v[0] += c * 19;
    r.v[1] += r.v[0] >> 51;
    r.v[0] &= Mask51;
    return r;
}

/**
 * x^(p-2) = x^(2^255 - 21) by the standard addition chain: 254
 * squarings and 11 multiplications. z_a_b names x^(2^a - 2^b).
 */
Fe
feInvert(const Fe &x)
{
    const Fe z2 = feSquare(x);
    const Fe z9 = feMul(feSquareTimes(z2, 2), x);
    const Fe z11 = feMul(z9, z2);
    const Fe z_5_0 = feMul(feSquare(z11), z9);
    const Fe z_10_0 = feMul(feSquareTimes(z_5_0, 5), z_5_0);
    const Fe z_20_0 = feMul(feSquareTimes(z_10_0, 10), z_10_0);
    const Fe z_40_0 = feMul(feSquareTimes(z_20_0, 20), z_20_0);
    const Fe z_50_0 = feMul(feSquareTimes(z_40_0, 10), z_10_0);
    const Fe z_100_0 = feMul(feSquareTimes(z_50_0, 50), z_50_0);
    const Fe z_200_0 = feMul(feSquareTimes(z_100_0, 100), z_100_0);
    const Fe z_250_0 = feMul(feSquareTimes(z_200_0, 50), z_50_0);
    return feMul(feSquareTimes(z_250_0, 5), z11);
}

void
feCswap(std::uint64_t swap, Fe &a, Fe &b)
{
    const std::uint64_t mask = ~(swap - 1);  // swap ? ~0 : 0
    for (int i = 0; i < 5; ++i) {
        std::uint64_t t = mask & (a.v[i] ^ b.v[i]);
        a.v[i] ^= t;
        b.v[i] ^= t;
    }
}

}  // namespace

X25519Key
x25519BasePoint()
{
    X25519Key base{};
    base[0] = 9;
    return base;
}

X25519Key
x25519(const X25519Key &scalar, const X25519Key &u)
{
    std::uint8_t k[32];
    std::memcpy(k, scalar.data(), 32);
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;

    std::uint8_t u_bytes[32];
    std::memcpy(u_bytes, u.data(), 32);
    u_bytes[31] &= 127;  // mask the unused top bit per RFC 7748

    const Fe x1 = feFromBytes(u_bytes);
    Fe x2{{1, 0, 0, 0, 0}};
    Fe z2{{0, 0, 0, 0, 0}};
    Fe x3 = x1;
    Fe z3{{1, 0, 0, 0, 0}};
    std::uint64_t swap = 0;

    for (int t = 254; t >= 0; --t) {
        const std::uint64_t k_t = (k[t / 8] >> (t % 8)) & 1;
        swap ^= k_t;
        feCswap(swap, x2, x3);
        feCswap(swap, z2, z3);
        swap = k_t;

        Fe a = feCarry(feAdd(x2, z2));
        Fe aa = feSquare(a);
        Fe b = feCarry(feSub(x2, z2));
        Fe bb = feSquare(b);
        Fe e = feCarry(feSub(aa, bb));
        Fe c = feCarry(feAdd(x3, z3));
        Fe d = feCarry(feSub(x3, z3));
        Fe da = feMul(d, a);
        Fe cb = feMul(c, b);
        x3 = feSquare(feCarry(feAdd(da, cb)));
        z3 = feMul(x1, feSquare(feCarry(feSub(da, cb))));
        x2 = feMul(aa, bb);
        z2 = feMul(e, feCarry(feAdd(aa, feMul121665(e))));
    }
    feCswap(swap, x2, x3);
    feCswap(swap, z2, z3);

    Fe out = feMul(x2, feInvert(z2));
    X25519Key result;
    feToBytes(result.data(), out);
    return result;
}

X25519KeyPair
X25519KeyPair::generate(Rng &rng)
{
    X25519KeyPair pair;
    rng.fill(pair.privateKey.data(), pair.privateKey.size());
    pair.publicKey = x25519(pair.privateKey, x25519BasePoint());
    return pair;
}

X25519Key
x25519Shared(const X25519KeyPair &mine, const X25519Key &peer_public)
{
    return x25519(mine.privateKey, peer_public);
}

}  // namespace hix::crypto
