/**
 * @file
 * X25519 tests: RFC 7748 known-answer vectors, DH agreement
 * properties, and the three-party composition the HIX session setup
 * relies on.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/byte_utils.h"
#include "common/rng.h"
#include "crypto/x25519.h"

namespace hix::crypto
{
namespace
{

X25519Key
keyFromHex(const std::string &hex)
{
    Bytes b = fromHex(hex);
    X25519Key k;
    std::memcpy(k.data(), b.data(), k.size());
    return k;
}

std::string
keyToHex(const X25519Key &k)
{
    return toHex(k.data(), k.size());
}

TEST(X25519Test, Rfc7748Vector1)
{
    X25519Key scalar = keyFromHex(
        "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
    X25519Key u = keyFromHex(
        "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
    EXPECT_EQ(
        keyToHex(x25519(scalar, u)),
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519Test, Rfc7748Vector2)
{
    X25519Key scalar = keyFromHex(
        "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
    X25519Key u = keyFromHex(
        "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
    EXPECT_EQ(
        keyToHex(x25519(scalar, u)),
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519Test, Rfc7748DiffieHellmanExample)
{
    // Alice and Bob keys from RFC 7748 Section 6.1.
    X25519Key alice_priv = keyFromHex(
        "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
    X25519Key bob_priv = keyFromHex(
        "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");

    X25519Key alice_pub = x25519(alice_priv, x25519BasePoint());
    X25519Key bob_pub = x25519(bob_priv, x25519BasePoint());

    EXPECT_EQ(
        keyToHex(alice_pub),
        "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
    EXPECT_EQ(
        keyToHex(bob_pub),
        "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

    X25519Key k1 = x25519(alice_priv, bob_pub);
    X25519Key k2 = x25519(bob_priv, alice_pub);
    EXPECT_EQ(keyToHex(k1),
              "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
    EXPECT_EQ(k1, k2);
}

TEST(X25519Test, Rfc7748IteratedVector)
{
    // RFC 7748 Section 5.2: k = u = 9; each iteration sets
    // k, u = X25519(k, u), k.
    X25519Key k = x25519BasePoint();
    X25519Key u = x25519BasePoint();
    auto iterate = [&k, &u] {
        const X25519Key next = x25519(k, u);
        u = k;
        k = next;
    };
    iterate();
    EXPECT_EQ(
        keyToHex(k),
        "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
    for (int i = 1; i < 1000; ++i)
        iterate();
    EXPECT_EQ(
        keyToHex(k),
        "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519Test, GeneratedPairsAgree)
{
    Rng rng(2024);
    for (int i = 0; i < 10; ++i) {
        auto a = X25519KeyPair::generate(rng);
        auto b = X25519KeyPair::generate(rng);
        EXPECT_EQ(x25519Shared(a, b.publicKey),
                  x25519Shared(b, a.publicKey));
    }
}

TEST(X25519Test, ThreePartyCompositionAgrees)
{
    // g^abc computed in all three bracketing orders, as the user
    // enclave / GPU enclave / GPU session setup does.
    Rng rng(31337);
    auto a = X25519KeyPair::generate(rng);
    auto b = X25519KeyPair::generate(rng);
    auto c = X25519KeyPair::generate(rng);

    X25519Key gab = x25519(b.privateKey, a.publicKey);
    X25519Key gac = x25519(c.privateKey, a.publicKey);
    X25519Key gbc = x25519(c.privateKey, b.publicKey);

    X25519Key k_c = x25519(c.privateKey, gab);
    X25519Key k_b = x25519(b.privateKey, gac);
    X25519Key k_a = x25519(a.privateKey, gbc);

    EXPECT_EQ(k_a, k_b);
    EXPECT_EQ(k_b, k_c);
}

TEST(X25519Test, DifferentPeersDifferentSecrets)
{
    Rng rng(5);
    auto a = X25519KeyPair::generate(rng);
    auto b = X25519KeyPair::generate(rng);
    auto c = X25519KeyPair::generate(rng);
    EXPECT_NE(x25519Shared(a, b.publicKey), x25519Shared(a, c.publicKey));
}

TEST(X25519Test, ClampingMakesLowBitsIrrelevant)
{
    Rng rng(6);
    X25519Key scalar;
    rng.fill(scalar.data(), scalar.size());
    X25519Key scalar2 = scalar;
    scalar2[0] ^= 0x07;  // clamped away
    X25519Key u = x25519BasePoint();
    EXPECT_EQ(x25519(scalar, u), x25519(scalar2, u));
}

}  // namespace
}  // namespace hix::crypto
