/**
 * @file
 * Fast-path crypto engine tests: byte-identity of the T-table and
 * hardware AES engines against the scalar reference, the wide-block
 * API against the single-block API, and an allocation counter proving
 * steady-state AuthChannel and OCB sealing do no heap allocation.
 *
 * This file lives in its own test binary (test_fast_path) because it
 * overrides the global operator new/delete to count allocations.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/auth_channel.h"
#include "crypto/ocb.h"

// ----- Global allocation counter ---------------------------------------

namespace
{
std::atomic<std::uint64_t> g_allocations{0};
}

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace hix::crypto
{
namespace
{

AesKey
testKey()
{
    Rng rng(1234);
    AesKey key;
    rng.fill(key.data(), key.size());
    return key;
}

/** Message sizes covering empty, sub-block, block-edge, wide-loop,
 * and chunk-scale inputs (the issue's required set). */
const std::size_t kSizes[] = {0, 1, 15, 16, 17, 4096, 1024 * 1024};

// ----- Cross-engine byte identity --------------------------------------

TEST(FastPathTest, EnginesProduceIdenticalSealedBytes)
{
    const AesKey key = testKey();
    const Ocb ref(key, AesEngine::Reference);
    const Ocb ttable(key, AesEngine::TTable);
    const Ocb fast(key, AesEngine::Fast);
    Rng rng(99);

    for (std::size_t size : kSizes) {
        SCOPED_TRACE(size);
        const Bytes pt = rng.bytes(size);
        const Bytes ad = rng.bytes(size % 64);
        const OcbNonce nonce = makeNonce(7, size + 1);

        const Bytes ct_ref = ref.encrypt(nonce, ad, pt);
        const Bytes ct_ttable = ttable.encrypt(nonce, ad, pt);
        const Bytes ct_fast = fast.encrypt(nonce, ad, pt);

        // Ciphertext and tag, byte for byte.
        EXPECT_EQ(ct_ref, ct_ttable);
        EXPECT_EQ(ct_ref, ct_fast);

        // Cross-engine open: sealed by fast, opened by reference and
        // vice versa.
        auto pt_ref = ref.decrypt(nonce, ad, ct_fast);
        ASSERT_TRUE(pt_ref.isOk());
        EXPECT_EQ(*pt_ref, pt);
        auto pt_fast = fast.decrypt(nonce, ad, ct_ref);
        ASSERT_TRUE(pt_fast.isOk());
        EXPECT_EQ(*pt_fast, pt);
        auto pt_ttable = ttable.decrypt(nonce, ad, ct_ref);
        ASSERT_TRUE(pt_ttable.isOk());
        EXPECT_EQ(*pt_ttable, pt);
    }
}

TEST(FastPathTest, HwEngineUsedWhenSupported)
{
    const Aes128 fast(testKey(), AesEngine::Fast);
    const Aes128 ttable(testKey(), AesEngine::TTable);
    EXPECT_EQ(fast.usesHw(), Aes128::hwSupported());
    EXPECT_FALSE(ttable.usesHw());
}

// ----- Wide-block API vs single-block API ------------------------------

TEST(FastPathTest, EncryptBlocksMatchesSingleBlockCalls)
{
    const AesKey key = testKey();
    Rng rng(5);
    for (AesEngine engine :
         {AesEngine::Fast, AesEngine::TTable, AesEngine::Reference}) {
        const Aes128 aes(key, engine);
        for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 64u}) {
            SCOPED_TRACE(n);
            const Bytes in = rng.bytes(n * AesBlockSize);
            Bytes wide(in.size());
            aes.encryptBlocks(in.data(), wide.data(), n);
            Bytes single(in.size());
            for (std::size_t b = 0; b < n; ++b)
                aes.encryptBlock(in.data() + b * AesBlockSize,
                                 single.data() + b * AesBlockSize);
            EXPECT_EQ(wide, single);

            Bytes wide_dec(in.size());
            aes.decryptBlocks(wide.data(), wide_dec.data(), n);
            EXPECT_EQ(wide_dec, in);
        }
    }
}

TEST(FastPathTest, EncryptBlocksSupportsInPlaceOperation)
{
    const Aes128 aes(testKey());
    Rng rng(6);
    Bytes buf = rng.bytes(9 * AesBlockSize);
    const Bytes orig = buf;
    Bytes expect(buf.size());
    aes.encryptBlocks(buf.data(), expect.data(), 9);
    aes.encryptBlocks(buf.data(), buf.data(), 9);
    EXPECT_EQ(buf, expect);
    aes.decryptBlocks(buf.data(), buf.data(), 9);
    EXPECT_EQ(buf, orig);
}

// ----- Steady-state sealing allocates nothing --------------------------

TEST(FastPathTest, SteadyStateSealOpenDoesNotAllocate)
{
    const AesKey key = testKey();
    AuthChannel sender(key, /*send=*/1, /*recv=*/2);
    AuthChannel receiver(key, /*send=*/2, /*recv=*/1);
    Rng rng(55);
    const Bytes pt = rng.bytes(4096);

    SealedMessage msg;
    Bytes opened;
    // Warm-up: first iteration grows msg.body and the open buffer to
    // their steady-state capacity.
    sender.sealInto(pt.data(), pt.size(), nullptr, 0, &msg);
    ASSERT_TRUE(receiver.openInto(msg, nullptr, 0, &opened).isOk());
    ASSERT_EQ(opened, pt);

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 100; ++i) {
        sender.sealInto(pt.data(), pt.size(), nullptr, 0, &msg);
        ASSERT_TRUE(receiver.openInto(msg, nullptr, 0, &opened).isOk());
    }
    const std::uint64_t after =
        g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before) << "steady-state sealInto/openInto "
                                "performed heap allocations";
    EXPECT_EQ(opened, pt);
}

TEST(FastPathTest, SteadyStateOcbEncryptIntoDoesNotAllocate)
{
    const Ocb ocb(testKey());
    Rng rng(56);
    const Bytes pt = rng.bytes(64 * 1024);
    Bytes out(pt.size() + OcbTagSize);
    Bytes back(pt.size());

    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 16; ++i) {
        ocb.encryptInto(makeNonce(9, i + 1), nullptr, 0, pt.data(),
                        pt.size(), out.data(), out.data() + pt.size());
        ASSERT_TRUE(ocb.decryptInto(makeNonce(9, i + 1), nullptr, 0,
                                    out.data(), pt.size(),
                                    out.data() + pt.size(), back.data())
                        .isOk());
    }
    const std::uint64_t after =
        g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before);
    EXPECT_EQ(back, pt);
}

}  // namespace
}  // namespace hix::crypto
