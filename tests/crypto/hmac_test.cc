/**
 * @file
 * HMAC-SHA256 against the RFC 4231 test vectors (cases 1-4, 6, 7 —
 * case 5 tests truncated output, which this API does not expose), the
 * RFC 2104 rule that an over-long key is hashed first, and the
 * deriveAesKey label separation on top of it.
 */

#include <string>

#include <gtest/gtest.h>

#include "crypto/hmac.h"

namespace hix::crypto
{
namespace
{

Bytes
fromHex(const std::string &hex)
{
    Bytes out;
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(static_cast<std::uint8_t>(
            std::stoi(hex.substr(i, 2), nullptr, 16)));
    return out;
}

Bytes
fromString(const std::string &s)
{
    return Bytes(s.begin(), s.end());
}

void
expectHmac(const Bytes &key, const Bytes &data, const std::string &hex)
{
    const Sha256Digest mac = hmacSha256(key, data);
    const Bytes want = fromHex(hex);
    ASSERT_EQ(want.size(), mac.size());
    EXPECT_TRUE(std::equal(mac.begin(), mac.end(), want.begin()));
}

TEST(HmacSha256Test, Rfc4231Case1)
{
    expectHmac(Bytes(20, 0x0b), fromString("Hi There"),
               "b0344c61d8db38535ca8afceaf0bf12b"
               "881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256Test, Rfc4231Case2)
{
    expectHmac(fromString("Jefe"),
               fromString("what do ya want for nothing?"),
               "5bdcc146bf60754e6a042426089575c7"
               "5a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256Test, Rfc4231Case3)
{
    expectHmac(Bytes(20, 0xaa), Bytes(50, 0xdd),
               "773ea91e36800e46854db8ebd09181a7"
               "2959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256Test, Rfc4231Case4)
{
    expectHmac(fromHex("0102030405060708090a0b0c0d0e0f10"
                       "111213141516171819"),
               Bytes(50, 0xcd),
               "82558a389a443c0ea4cc819899f2083a"
               "85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256Test, Rfc4231Case6LargerThanBlockSizeKey)
{
    expectHmac(Bytes(131, 0xaa),
               fromString("Test Using Larger Than Block-Size Key - "
                          "Hash Key First"),
               "60e431591ee0b67f0d8a26aacbf5b77f"
               "8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256Test, Rfc4231Case7LargerThanBlockSizeKeyAndData)
{
    expectHmac(
        Bytes(131, 0xaa),
        fromString("This is a test using a larger than block-size "
                   "key and a larger than block-size data. The key "
                   "needs to be hashed before being used by the "
                   "HMAC algorithm."),
        "9b09ffa71b942fcb27635fbcd5b0e944"
        "bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256Test, LongKeyIsHashedFirst)
{
    // RFC 2104: a key longer than the 64-byte block is replaced by its
    // SHA-256 digest, so both keys must give the same MAC.
    const Bytes key(131, 0xaa);
    const Sha256Digest hashed = Sha256::digest(key);
    const Bytes data = fromString("some data");
    EXPECT_EQ(hmacSha256(key, data),
              hmacSha256(Bytes(hashed.begin(), hashed.end()), data));
}

TEST(HmacSha256Test, PointerOverloadMatchesByteOverload)
{
    const Bytes key = fromString("key");
    const Bytes data = fromString("some data");
    const Sha256Digest a = hmacSha256(key, data);
    const Sha256Digest b = hmacSha256(key.data(), key.size(),
                                      data.data(), data.size());
    EXPECT_EQ(a, b);
}

TEST(DeriveAesKeyTest, IsTruncatedHmacOfLabel)
{
    const Bytes secret(32, 0x7e);
    const std::string label = "hix-session-h2d";
    const AesKey key = deriveAesKey(secret, label);
    const Sha256Digest mac = hmacSha256(secret, fromString(label));
    EXPECT_TRUE(std::equal(key.begin(), key.end(), mac.begin()));
}

TEST(DeriveAesKeyTest, LabelsSeparateKeys)
{
    const Bytes secret(32, 0x7e);
    EXPECT_NE(deriveAesKey(secret, "h2d"), deriveAesKey(secret, "d2h"));
    EXPECT_NE(deriveAesKey(secret, "h2d"),
              deriveAesKey(Bytes(32, 0x7f), "h2d"));
}

}  // namespace
}  // namespace hix::crypto
