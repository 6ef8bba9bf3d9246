/**
 * @file
 * OCB-AES-128 tests: RFC 7253 Appendix A known-answer vectors (the
 * sample results and the iterated vector), a block-at-a-time oracle
 * written from RFC 7253 Section 4 that checks the wide loops of all
 * three engines byte for byte (every length through three eight-block
 * batches, misaligned buffers, AD lengths around the block), plus
 * round-trip, tamper-detection, and nonce-sensitivity properties.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "common/byte_utils.h"
#include "common/rng.h"
#include "crypto/ocb.h"

namespace hix::crypto
{
namespace
{

AesKey
rfcKey()
{
    AesKey k;
    Bytes b = fromHex("000102030405060708090a0b0c0d0e0f");
    std::memcpy(k.data(), b.data(), k.size());
    return k;
}

OcbNonce
rfcNonce(std::uint8_t last)
{
    // BBAA998877665544332211XX
    Bytes b = fromHex("bbaa99887766554433221100");
    b[11] = last;
    OcbNonce n;
    std::memcpy(n.data(), b.data(), n.size());
    return n;
}

Bytes
seq(std::size_t n)
{
    Bytes b(n);
    for (std::size_t i = 0; i < n; ++i)
        b[i] = static_cast<std::uint8_t>(i);
    return b;
}

struct RfcVector
{
    std::uint8_t nonce_last;
    std::size_t ad_len;
    std::size_t pt_len;
    const char *expected;  // ciphertext || tag, hex
};

// RFC 7253 Appendix A, AEAD_AES_128_OCB_TAGLEN128 sample results.
const RfcVector rfc_vectors[] = {
    {0x00, 0, 0, "785407bfffc8ad9edcc5520ac9111ee6"},
    {0x01, 8, 8,
     "6820b3657b6f615a5725bda0d3b4eb3a257c9af1f8f03009"},
    {0x02, 8, 0, "81017f8203f081277152fade694a0a00"},
    {0x03, 0, 8,
     "45dd69f8f5aae72414054cd1f35d82760b2cd00d2f99bfa9"},
    {0x04, 16, 16,
     "571d535b60b277188be5147170a9a22c3ad7a4ff3835b8c5701c1ccec8fc3358"},
    {0x05, 16, 0, "8cf761b6902ef764462ad86498ca6b97"},
    {0x06, 0, 16,
     "5ce88ec2e0692706a915c00aeb8b2396f40e1c743f52436bdf06d8fa1eca343d"},
    {0x07, 24, 24,
     "1ca2207308c87c010756104d8840ce1952f09673a448a122c92c62241051f57356d7f3"
     "c90bb0e07f"},
    {0x08, 24, 0, "6dc225a071fc1b9f7c69f93b0f1e10de"},
    {0x09, 0, 24,
     "221bd0de7fa6fe993eccd769460a0af2d6cded0c395b1c3ce725f32494b9f914d85c0b"
     "1eb38357ff"},
    {0x0a, 32, 32,
     "bd6f6c496201c69296c11efd138a467abd3c707924b964deaffc40319af5a48540fbba"
     "186c5553c68ad9f592a79a4240"},
    {0x0b, 32, 0, "fe80690bee8a485d11f32965bc9d2a32"},
    {0x0c, 0, 32,
     "2942bfc773bda23cabc6acfd9bfd5835bd300f0973792ef46040c53f1432bcdfb5e1dd"
     "e3bc18a5f840b52e653444d5df"},
    {0x0d, 40, 40,
     "d5ca91748410c1751ff8a2f618255b68a0a12e093ff454606e59f9c1d0ddc54b65e8628"
     "e568bad7aed07ba06a4a69483a7035490c5769e60"},
    {0x0e, 40, 0, "c5cd9d1850c141e358649994ee701b68"},
    {0x0f, 0, 40,
     "4412923493c57d5de0d700f753cce0d1d2d95060122e9f15a5ddbfc5787e50b5cc55ee5"
     "07bcb084e479ad363ac366b95a98ca5f3000b1479"},
};

TEST(OcbTest, Rfc7253KnownAnswers)
{
    // Every engine must reproduce the RFC's bytes exactly.
    for (AesEngine engine : {AesEngine::Fast, AesEngine::TTable,
                             AesEngine::Reference}) {
        SCOPED_TRACE(static_cast<int>(engine));
        Ocb ocb(rfcKey(), engine);
        for (const auto &v : rfc_vectors) {
            Bytes ad = seq(v.ad_len);
            Bytes pt = seq(v.pt_len);
            Bytes ct = ocb.encrypt(rfcNonce(v.nonce_last), ad, pt);
            EXPECT_EQ(toHex(ct), v.expected)
                << "nonce last byte 0x" << std::hex
                << int(v.nonce_last);

            auto back = ocb.decrypt(rfcNonce(v.nonce_last), ad, ct);
            ASSERT_TRUE(back.isOk());
            EXPECT_EQ(*back, pt);
        }
    }
}

// ----- Block-at-a-time oracle (RFC 7253 Section 4) --------------------

/**
 * OCB-ENCRYPT exactly as RFC 7253 Section 4 states it, one block at a
 * time over Aes128::encryptBlock on the reference engine: L_i grown by
 * doubling on demand, ntz by shifting, Offset_0 taken bit by bit out
 * of Stretch. It shares no code with Ocb, so it checks the production
 * wide loops against the specification rather than against
 * themselves.
 */
class OcbOracle
{
  public:
    explicit OcbOracle(const AesKey &key)
        : aes_(key, AesEngine::Reference)
    {
        AesBlock zero{};
        l_star_ = enc(zero);
        l_dollar_ = dbl(l_star_);
        l_.push_back(dbl(l_dollar_));
    }

    /** C || Tag for (N, A, P). */
    Bytes
    encrypt(const OcbNonce &n, const Bytes &a, const Bytes &p)
    {
        // Nonce = num2str(TAGLEN mod 128, 7) || zeros || 1 || N.
        AesBlock nonce{};
        nonce[15 - n.size()] = 0x01;
        std::memcpy(nonce.data() + 16 - n.size(), n.data(), n.size());
        const unsigned bottom = nonce[15] & 0x3f;
        AesBlock top_in = nonce;
        top_in[15] &= 0xc0;
        const AesBlock ktop = enc(top_in);
        std::uint8_t stretch[24];
        std::memcpy(stretch, ktop.data(), 16);
        for (int i = 0; i < 8; ++i)
            stretch[16 + i] = ktop[i] ^ ktop[i + 1];
        AesBlock offset{};
        for (unsigned bit = 0; bit < 128; ++bit) {
            const unsigned src = bit + bottom;
            if ((stretch[src / 8] >> (7 - src % 8)) & 1)
                offset[bit / 8] |= 0x80 >> (bit % 8);
        }

        AesBlock checksum{};
        Bytes out;
        const std::size_t m = p.size() / 16;
        for (std::size_t i = 1; i <= m; ++i) {
            offset = xr(offset, L(ntz(i)));
            const AesBlock pi = blockAt(p, (i - 1) * 16);
            const AesBlock ci = xr(offset, enc(xr(pi, offset)));
            out.insert(out.end(), ci.begin(), ci.end());
            checksum = xr(checksum, pi);
        }
        const std::size_t rest = p.size() % 16;
        if (rest > 0) {
            offset = xr(offset, l_star_);
            const AesBlock pad = enc(offset);
            AesBlock padded{};
            for (std::size_t j = 0; j < rest; ++j) {
                out.push_back(p[m * 16 + j] ^ pad[j]);
                padded[j] = p[m * 16 + j];
            }
            padded[rest] = 0x80;
            checksum = xr(checksum, padded);
        }
        const AesBlock tag =
            xr(enc(xr(xr(checksum, offset), l_dollar_)), hash(a));
        out.insert(out.end(), tag.begin(), tag.end());
        return out;
    }

  private:
    AesBlock
    enc(const AesBlock &in) const
    {
        AesBlock out;
        aes_.encryptBlock(in.data(), out.data());
        return out;
    }

    static AesBlock
    xr(const AesBlock &a, const AesBlock &b)
    {
        AesBlock out;
        for (std::size_t i = 0; i < 16; ++i)
            out[i] = a[i] ^ b[i];
        return out;
    }

    /** double(S): S << 1, xor 0x87 into the last byte on carry-out. */
    static AesBlock
    dbl(const AesBlock &s)
    {
        AesBlock out;
        for (std::size_t i = 0; i < 16; ++i)
            out[i] = static_cast<std::uint8_t>(
                (s[i] << 1) | (i + 1 < 16 ? s[i + 1] >> 7 : 0));
        if (s[0] & 0x80)
            out[15] ^= 0x87;
        return out;
    }

    static std::size_t
    ntz(std::size_t i)
    {
        std::size_t n = 0;
        for (; (i & 1) == 0; i >>= 1)
            ++n;
        return n;
    }

    static AesBlock
    blockAt(const Bytes &b, std::size_t off)
    {
        AesBlock out;
        std::memcpy(out.data(), b.data() + off, 16);
        return out;
    }

    const AesBlock &
    L(std::size_t i)
    {
        while (l_.size() <= i)
            l_.push_back(dbl(l_.back()));
        return l_[i];
    }

    AesBlock
    hash(const Bytes &a)
    {
        AesBlock sum{};
        AesBlock offset{};
        const std::size_t m = a.size() / 16;
        for (std::size_t i = 1; i <= m; ++i) {
            offset = xr(offset, L(ntz(i)));
            sum = xr(sum, enc(xr(blockAt(a, (i - 1) * 16), offset)));
        }
        const std::size_t rest = a.size() % 16;
        if (rest > 0) {
            offset = xr(offset, l_star_);
            AesBlock padded{};
            std::memcpy(padded.data(), a.data() + m * 16, rest);
            padded[rest] = 0x80;
            sum = xr(sum, enc(xr(padded, offset)));
        }
        return sum;
    }

    Aes128 aes_;
    AesBlock l_star_;
    AesBlock l_dollar_;
    std::vector<AesBlock> l_;
};

/** The three engines on one key. */
std::array<Ocb, 3>
allEngines(const AesKey &key)
{
    return {Ocb(key, AesEngine::Fast), Ocb(key, AesEngine::TTable),
            Ocb(key, AesEngine::Reference)};
}

/** Seal with every engine and open the oracle's bytes back. */
void
expectEnginesMatchOracle(const std::array<Ocb, 3> &engines,
                         OcbOracle &oracle, const OcbNonce &n,
                         const Bytes &ad, const Bytes &pt)
{
    const Bytes expected = oracle.encrypt(n, ad, pt);
    for (const Ocb &ocb : engines) {
        SCOPED_TRACE(static_cast<int>(ocb.engine()));
        EXPECT_TRUE(ocb.encrypt(n, ad, pt) == expected)
            << "ciphertext differs from oracle";
        auto back = ocb.decrypt(n, ad, expected);
        ASSERT_TRUE(back.isOk()) << back.status().toString();
        EXPECT_TRUE(*back == pt) << "decrypt differs from plaintext";
    }
}

TEST(OcbTest, WideLoopMatchesBlockAtATimeOracle)
{
    // Every length here reaches the eight-block wide loop (128 bytes
    // and up); the odd ones also leave full-block and partial tails.
    Rng rng(20);
    AesKey key;
    rng.fill(key.data(), key.size());
    OcbOracle oracle(key);
    const auto engines = allEngines(key);
    for (std::size_t len : {128u, 129u, 255u, 256u, 4096u, 4113u, 65536u,
                            65551u, 1u << 20}) {
        SCOPED_TRACE(len);
        const Bytes pt = rng.bytes(len);
        const Bytes ad = rng.bytes(len % 53);
        expectEnginesMatchOracle(engines, oracle, makeNonce(3, len), ad, pt);
    }
}

TEST(OcbTest, EveryLengthThroughThreeBatchesMatchesOracle)
{
    // Every length from empty to three whole eight-block batches plus
    // a block and a partial one: each batch count (0-3) with every
    // full-block and partial tail behind it.
    Rng rng(28);
    AesKey key;
    rng.fill(key.data(), key.size());
    OcbOracle oracle(key);
    const auto engines = allEngines(key);
    const Bytes ad = rng.bytes(17);
    for (std::size_t len = 0; len <= 3 * 128 + 17; ++len) {
        SCOPED_TRACE(len);
        expectEnginesMatchOracle(engines, oracle, makeNonce(4, len), ad,
                                 rng.bytes(len));
    }
}

TEST(OcbTest, AdLengthsAroundTheBlockMatchOracle)
{
    // hashAd's whole blocks and its padded partial block, beside a
    // message that takes two batches and both tails.
    Rng rng(29);
    AesKey key;
    rng.fill(key.data(), key.size());
    OcbOracle oracle(key);
    const auto engines = allEngines(key);
    const Bytes pt = rng.bytes(2 * 128 + 16 + 9);
    for (std::size_t ad_len : {0u, 1u, 15u, 16u, 17u, 129u}) {
        SCOPED_TRACE(ad_len);
        expectEnginesMatchOracle(engines, oracle, makeNonce(5, ad_len),
                                 rng.bytes(ad_len), pt);
    }
}

/** A pointer into @p buf @p misalign bytes past a 16-byte boundary. */
std::uint8_t *
misaligned(Bytes &buf, std::size_t misalign)
{
    const auto addr = reinterpret_cast<std::uintptr_t>(buf.data());
    return buf.data() + (16 - addr % 16) % 16 + misalign;
}

TEST(OcbTest, MisalignedBuffersMatchOracle)
{
    // encryptInto/decryptInto with input, output and tag pointers 1-15
    // bytes off a 16-byte boundary, input and output off by different
    // amounts.
    Rng rng(30);
    AesKey key;
    rng.fill(key.data(), key.size());
    OcbOracle oracle(key);
    const auto engines = allEngines(key);
    const std::size_t len = 2 * 128 + 16 + 5;
    const Bytes pt = rng.bytes(len);
    const Bytes ad = rng.bytes(3);
    const OcbNonce n = makeNonce(6, 1);
    const Bytes expected = oracle.encrypt(n, ad, pt);
    for (std::size_t shift = 1; shift < 16; ++shift) {
        SCOPED_TRACE(shift);
        Bytes in_buf(len + OcbTagSize + 32);
        Bytes out_buf(len + OcbTagSize + 32);
        std::uint8_t *in = misaligned(in_buf, shift);
        std::uint8_t *out = misaligned(out_buf, 16 - shift);
        for (const Ocb &ocb : engines) {
            SCOPED_TRACE(static_cast<int>(ocb.engine()));
            std::memcpy(in, pt.data(), len);
            ocb.encryptInto(n, ad.data(), ad.size(), in, len, out,
                            out + len);
            EXPECT_EQ(std::memcmp(out, expected.data(), len + OcbTagSize),
                      0);

            std::memcpy(in, expected.data(), len + OcbTagSize);
            ASSERT_TRUE(ocb.decryptInto(n, ad.data(), ad.size(), in, len,
                                        in + len, out)
                            .isOk());
            EXPECT_EQ(std::memcmp(out, pt.data(), len), 0);
        }
    }
}

TEST(OcbTest, Rfc7253IteratedVector)
{
    // RFC 7253 Appendix A: K = zeros(KEYLEN-8) || num2str(TAGLEN,8);
    // for i = 0..127, S = zeros(8i) (i zero bytes) and C gathers
    // OCB-ENCRYPT(K,N,S,S), (K,N,<empty>,S) and (K,N,S,<empty>) under
    // nonces num2str(3i+1..3i+3, 96). The answer is
    // OCB-ENCRYPT(K, num2str(385,96), C, <empty>).
    AesKey key{};
    key[15] = 0x80;
    for (AesEngine engine : {AesEngine::Fast, AesEngine::TTable,
                             AesEngine::Reference}) {
        SCOPED_TRACE(static_cast<int>(engine));
        Ocb ocb(key, engine);
        Bytes c;
        for (std::uint64_t i = 0; i < 128; ++i) {
            const Bytes s(i, 0);
            for (const Bytes &part :
                 {ocb.encrypt(makeNonce(0, 3 * i + 1), s, s),
                  ocb.encrypt(makeNonce(0, 3 * i + 2), {}, s),
                  ocb.encrypt(makeNonce(0, 3 * i + 3), s, {})})
                c.insert(c.end(), part.begin(), part.end());
        }
        ASSERT_EQ(c.size(), 22400u);
        EXPECT_EQ(toHex(ocb.encrypt(makeNonce(0, 385), c, {})),
                  "67e944d23256c5e0b6c61fa22fdf1ea2");
    }
}

TEST(OcbTest, RoundTripRandomLengths)
{
    Rng rng(555);
    AesKey key;
    rng.fill(key.data(), key.size());
    Ocb ocb(key);
    for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 31u, 32u, 33u, 100u,
                            255u, 256u, 1000u, 4096u}) {
        Bytes pt = rng.bytes(len);
        Bytes ad = rng.bytes(len % 37);
        OcbNonce n = makeNonce(1, len + 1);
        Bytes ct = ocb.encrypt(n, ad, pt);
        EXPECT_EQ(ct.size(), len + OcbTagSize);
        auto back = ocb.decrypt(n, ad, ct);
        ASSERT_TRUE(back.isOk()) << "len " << len;
        EXPECT_EQ(*back, pt);
    }
}

TEST(OcbTest, TamperedCiphertextFailsIntegrity)
{
    Rng rng(7);
    AesKey key;
    rng.fill(key.data(), key.size());
    Ocb ocb(key);
    Bytes pt = rng.bytes(100);
    OcbNonce n = makeNonce(0, 1);
    Bytes ct = ocb.encrypt(n, {}, pt);

    for (std::size_t pos : {0u, 50u, 99u, 100u, 115u}) {
        Bytes bad = ct;
        bad[pos] ^= 0x01;
        auto res = ocb.decrypt(n, {}, bad);
        EXPECT_FALSE(res.isOk()) << "pos " << pos;
        EXPECT_EQ(res.status().code(), StatusCode::IntegrityFailure);
    }
}

TEST(OcbTest, TamperedAdFailsIntegrity)
{
    Rng rng(8);
    AesKey key;
    rng.fill(key.data(), key.size());
    Ocb ocb(key);
    Bytes pt = rng.bytes(64);
    Bytes ad = rng.bytes(20);
    OcbNonce n = makeNonce(0, 2);
    Bytes ct = ocb.encrypt(n, ad, pt);

    Bytes bad_ad = ad;
    bad_ad[3] ^= 0x80;
    EXPECT_FALSE(ocb.decrypt(n, bad_ad, ct).isOk());
    EXPECT_TRUE(ocb.decrypt(n, ad, ct).isOk());
}

TEST(OcbTest, WrongNonceFails)
{
    Rng rng(9);
    AesKey key;
    rng.fill(key.data(), key.size());
    Ocb ocb(key);
    Bytes pt = rng.bytes(48);
    Bytes ct = ocb.encrypt(makeNonce(0, 1), {}, pt);
    EXPECT_FALSE(ocb.decrypt(makeNonce(0, 2), {}, ct).isOk());
}

TEST(OcbTest, WrongKeyFails)
{
    Rng rng(10);
    AesKey key_a, key_b;
    rng.fill(key_a.data(), key_a.size());
    rng.fill(key_b.data(), key_b.size());
    Ocb a(key_a), b(key_b);
    Bytes pt = rng.bytes(48);
    OcbNonce n = makeNonce(0, 1);
    Bytes ct = a.encrypt(n, {}, pt);
    EXPECT_FALSE(b.decrypt(n, {}, ct).isOk());
}

TEST(OcbTest, CiphertextTooShortRejected)
{
    Ocb ocb(rfcKey());
    Bytes short_ct(8, 0);
    auto res = ocb.decrypt(makeNonce(0, 1), {}, short_ct);
    EXPECT_EQ(res.status().code(), StatusCode::InvalidArgument);
}

TEST(OcbTest, DistinctNoncesGiveDistinctCiphertext)
{
    Ocb ocb(rfcKey());
    Bytes pt(32, 0xaa);
    Bytes c1 = ocb.encrypt(makeNonce(1, 1), {}, pt);
    Bytes c2 = ocb.encrypt(makeNonce(1, 2), {}, pt);
    EXPECT_NE(toHex(c1), toHex(c2));
}

TEST(OcbTest, MakeNonceLayout)
{
    OcbNonce n = makeNonce(0x01020304, 0x0506070805060708ull);
    EXPECT_EQ(toHex(n.data(), n.size()), "010203040506070805060708");
}

}  // namespace
}  // namespace hix::crypto
