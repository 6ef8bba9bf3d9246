/**
 * @file
 * X25519 Diffie-Hellman function (RFC 7748), implemented from
 * scratch over GF(2^255 - 19).
 *
 * The paper specifies Diffie-Hellman key exchange among the user
 * enclave, the GPU enclave, and the GPU (Section 4.4.1) without
 * fixing a group; this reproduction uses Curve25519 scalar
 * multiplication, whose outputs compose so the exchange extends to
 * three parties in two rounds (g^a -> g^ab -> g^abc).
 *
 * Field elements are five 51-bit limbs with 128-bit products. The
 * Montgomery ladder squares with a dedicated squaring (15 products
 * instead of a general multiplication's 25), and the final inversion
 * runs the standard addition chain for p - 2 (254 squarings, 11
 * multiplications). Every session pays for several scalar
 * multiplications at boot and in the handshake, so this is host speed
 * only: simulated-time costs come from the platform timing model.
 */

#ifndef HIX_CRYPTO_X25519_H_
#define HIX_CRYPTO_X25519_H_

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "common/types.h"

namespace hix::crypto
{

/** X25519 scalar / point encoding size. */
inline constexpr std::size_t X25519KeySize = 32;

/** A 32-byte X25519 scalar or u-coordinate. */
using X25519Key = std::array<std::uint8_t, X25519KeySize>;

/** The base point u = 9. */
X25519Key x25519BasePoint();

/**
 * Scalar multiplication: X25519(k, u). The scalar is clamped per
 * RFC 7748 before use.
 */
X25519Key x25519(const X25519Key &scalar, const X25519Key &u);

/** A private/public X25519 key pair. */
struct X25519KeyPair
{
    X25519Key privateKey;
    X25519Key publicKey;

    /** Generate from the given deterministic RNG. */
    static X25519KeyPair generate(Rng &rng);
};

/** Shared secret: X25519(my private, peer public). */
X25519Key x25519Shared(const X25519KeyPair &mine,
                       const X25519Key &peer_public);

}  // namespace hix::crypto

#endif  // HIX_CRYPTO_X25519_H_
