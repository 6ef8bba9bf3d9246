/**
 * @file
 * SHA-256 known-answer tests (FIPS 180-4) and streaming-equivalence
 * properties; the HMAC-SHA256 suite is hmac_test.cc. Sha256EngineTest
 * runs the FIPS vectors and RFC 4231 HMAC cases 1-2 (through a
 * test-side HMAC) on each compression engine the host has and
 * compares SHA-NI against the scalar loop; on a host without SHA-NI
 * its SHA-NI cases report a skip instead of passing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/byte_utils.h"
#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace hix::crypto
{
namespace
{

std::string
digestHex(const Sha256Digest &d)
{
    return toHex(d.data(), d.size());
}

TEST(Sha256Test, EmptyString)
{
    EXPECT_EQ(
        digestHex(Sha256::digest(std::string())),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc)
{
    EXPECT_EQ(
        digestHex(Sha256::digest(std::string("abc"))),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage)
{
    EXPECT_EQ(
        digestHex(Sha256::digest(std::string(
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionA)
{
    Sha256 h;
    std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk);
    EXPECT_EQ(
        digestHex(h.finalize()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, StreamingMatchesOneShot)
{
    Rng rng(99);
    Bytes data = rng.bytes(10000);
    Sha256Digest oneshot = Sha256::digest(data);

    // Feed in awkward chunk sizes.
    Sha256 h;
    std::size_t pos = 0;
    std::size_t step = 1;
    while (pos < data.size()) {
        std::size_t take = std::min(step, data.size() - pos);
        h.update(data.data() + pos, take);
        pos += take;
        step = step * 3 + 1;
    }
    EXPECT_EQ(h.finalize(), oneshot);
}

TEST(Sha256Test, ResetAllowsReuse)
{
    Sha256 h;
    h.update(std::string("garbage"));
    h.reset();
    h.update(std::string("abc"));
    EXPECT_EQ(
        digestHex(h.finalize()),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, LengthBoundaryPadding)
{
    // 55, 56 and 64 byte messages exercise all padding branches.
    for (std::size_t n : {55u, 56u, 57u, 63u, 64u, 65u}) {
        Bytes a(n, 0x41);
        Bytes b(n, 0x41);
        EXPECT_EQ(Sha256::digest(a), Sha256::digest(b));
        b[n - 1] ^= 1;
        EXPECT_NE(Sha256::digest(a), Sha256::digest(b));
    }
}

// ----- Engines ---------------------------------------------------------

constexpr const char *NoShaNi =
    "SHA-NI engine not run: this host's CPU lacks the SHA extensions";

Sha256Digest
digestOn(Sha256Engine engine, const std::string &s)
{
    Sha256 h(engine);
    h.update(s);
    return h.finalize();
}

void
expectFipsVectors(Sha256Engine engine)
{
    EXPECT_EQ(
        digestHex(digestOn(engine, "")),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(
        digestHex(digestOn(engine, "abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        digestHex(digestOn(
            engine,
            "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    const std::string million_a =
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";
    EXPECT_EQ(digestHex(digestOn(engine, std::string(1000000, 'a'))),
              million_a);
    Sha256 h(engine);
    const std::string chunk(1000, 'a');
    for (int i = 0; i < 1000; ++i)
        h.update(chunk);
    EXPECT_EQ(digestHex(h.finalize()), million_a);
}

/** RFC 2104 HMAC on @p engine, for keys no longer than one block. */
Sha256Digest
hmacOn(Sha256Engine engine, const Bytes &key, const std::string &msg)
{
    std::uint8_t ipad[64], opad[64];
    for (std::size_t i = 0; i < 64; ++i) {
        const std::uint8_t k = i < key.size() ? key[i] : 0;
        ipad[i] = static_cast<std::uint8_t>(k ^ 0x36);
        opad[i] = static_cast<std::uint8_t>(k ^ 0x5c);
    }
    Sha256 inner(engine);
    inner.update(ipad, sizeof(ipad));
    inner.update(msg);
    const Sha256Digest inner_digest = inner.finalize();
    Sha256 outer(engine);
    outer.update(opad, sizeof(opad));
    outer.update(inner_digest.data(), inner_digest.size());
    return outer.finalize();
}

void
expectHmacRfc4231(Sha256Engine engine)
{
    const Bytes key1(20, 0x0b);
    const std::string msg1 = "Hi There";
    EXPECT_EQ(
        digestHex(hmacOn(engine, key1, msg1)),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    EXPECT_EQ(hmacOn(engine, key1, msg1),
              hmacSha256(key1, Bytes(msg1.begin(), msg1.end())));

    const Bytes key2 = {'J', 'e', 'f', 'e'};
    const std::string msg2 = "what do ya want for nothing?";
    EXPECT_EQ(
        digestHex(hmacOn(engine, key2, msg2)),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    EXPECT_EQ(hmacOn(engine, key2, msg2),
              hmacSha256(key2, Bytes(msg2.begin(), msg2.end())));
}

/** Hash @p data on @p engine through random update() sizes, 0 included. */
Sha256Digest
digestInRandomSplits(Sha256Engine engine, const Bytes &data, Rng &rng)
{
    Sha256 h(engine);
    std::size_t pos = 0;
    while (pos < data.size()) {
        const std::size_t take =
            std::min<std::size_t>(rng.nextBelow(140), data.size() - pos);
        h.update(data.data() + pos, take);
        pos += take;
    }
    return h.finalize();
}

TEST(Sha256EngineTest, FastEngineUsesShaNiWhenSupported)
{
    EXPECT_EQ(Sha256().usesHw(), Sha256::hwSupported());
    EXPECT_EQ(Sha256(Sha256Engine::Fast).usesHw(), Sha256::hwSupported());
    EXPECT_FALSE(Sha256(Sha256Engine::Scalar).usesHw());
}

TEST(Sha256EngineTest, ScalarEngineFipsVectors)
{
    expectFipsVectors(Sha256Engine::Scalar);
}

TEST(Sha256EngineTest, ShaNiEngineFipsVectors)
{
    if (!Sha256::hwSupported())
        GTEST_SKIP() << NoShaNi;
    expectFipsVectors(Sha256Engine::Fast);
}

TEST(Sha256EngineTest, EveryLengthInRandomSplitsMatchesScalar)
{
    if (!Sha256::hwSupported())
        GTEST_SKIP() << NoShaNi;
    Rng rng(0x5ca1a4);
    for (std::size_t len = 0; len <= 3 * 64 + 17; ++len) {
        const Bytes data = rng.bytes(len);
        Sha256 oneshot(Sha256Engine::Scalar);
        oneshot.update(data);
        const Sha256Digest expected = oneshot.finalize();
        EXPECT_EQ(digestInRandomSplits(Sha256Engine::Scalar, data, rng),
                  expected)
            << "scalar, length " << len;
        EXPECT_EQ(digestInRandomSplits(Sha256Engine::Fast, data, rng),
                  expected)
            << "SHA-NI, length " << len;
    }
}

TEST(Sha256EngineTest, ScalarEngineHmacRfc4231)
{
    expectHmacRfc4231(Sha256Engine::Scalar);
}

TEST(Sha256EngineTest, ShaNiEngineHmacRfc4231)
{
    if (!Sha256::hwSupported())
        GTEST_SKIP() << NoShaNi;
    expectHmacRfc4231(Sha256Engine::Fast);
}

TEST(DeriveAesKeyTest, LabelsYieldIndependentKeys)
{
    Bytes secret = {1, 2, 3, 4, 5};
    AesKey a = deriveAesKey(secret, "user->gpu");
    AesKey b = deriveAesKey(secret, "gpu->user");
    AesKey a2 = deriveAesKey(secret, "user->gpu");
    EXPECT_EQ(a, a2);
    EXPECT_NE(a, b);
}

}  // namespace
}  // namespace hix::crypto
