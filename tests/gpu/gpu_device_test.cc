/**
 * @file
 * Tests for the GPU device model: command FIFO, context isolation,
 * DMA copies, kernels, in-GPU crypto, scrubbing, BIOS, and reset.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/byte_utils.h"
#include "common/units.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "gpu/gpu_device.h"
#include "mem/phys_mem.h"
#include "pcie/root_complex.h"

namespace hix::gpu
{
namespace
{

class GpuDeviceTest : public ::testing::Test
{
  protected:
    GpuDeviceTest()
        : ram_("ram", 64 * MiB),
          gpu_("gpu0", GpuGeometry{}, GpuPerfModel{},
               sim::PlatformConfig::paper()),
          rc_(AddrRange(0xe0000000, 512 * MiB), &bus_, nullptr)
    {
        EXPECT_TRUE(bus_.attach(AddrRange(0, 64 * MiB), &ram_).isOk());
        EXPECT_TRUE(rc_.attachDevice(0, &gpu_).isOk());
        EXPECT_TRUE(rc_.enumerate().isOk());
    }

    /** Push one command into the FIFO and ring the doorbell. */
    void
    submit(GpuOp op, GpuContextId ctx,
           const std::vector<std::uint64_t> &args)
    {
        pushWord(static_cast<std::uint32_t>(op));
        pushWord(ctx);
        pushWord(static_cast<std::uint32_t>(args.size()));
        for (std::uint64_t a : args) {
            pushWord(static_cast<std::uint32_t>(a));
            pushWord(static_cast<std::uint32_t>(a >> 32));
        }
        ring();
    }

    void
    pushWord(std::uint32_t w)
    {
        std::uint8_t b[4];
        storeLE32(b, w);
        ASSERT_TRUE(gpu_.mmioWrite(0, reg::CmdFifo, b, 4).isOk());
    }

    void
    ring()
    {
        std::uint8_t b[4] = {1, 0, 0, 0};
        ASSERT_TRUE(gpu_.mmioWrite(0, reg::CmdDoorbell, b, 4).isOk());
    }

    std::uint32_t
    readReg(std::uint64_t offset)
    {
        std::uint8_t b[4];
        EXPECT_TRUE(gpu_.mmioRead(0, offset, b, 4).isOk());
        return loadLE32(b);
    }

    void
    expectOk()
    {
        EXPECT_EQ(readReg(reg::CmdStatus),
                  static_cast<std::uint32_t>(CmdStatusCode::Ok))
            << gpu_.lastError();
    }

    void
    expectError()
    {
        EXPECT_EQ(readReg(reg::CmdStatus),
                  static_cast<std::uint32_t>(CmdStatusCode::Error));
    }

    /**
     * Agree a session key in @p slot through context 1 (which must
     * map 0x100000..0x100120) and return the host side's OCB.
     */
    crypto::Ocb
    agreeKey(std::uint32_t slot)
    {
        Rng rng(slot + 100);
        auto host_pair = crypto::X25519KeyPair::generate(rng);
        EXPECT_TRUE(ram_.writeAt(0x1000, host_pair.publicKey.data(),
                                 crypto::X25519KeySize)
                        .isOk());
        submit(GpuOp::CopyH2D, 1,
               {0x1000, 0x100000, crypto::X25519KeySize});
        submit(GpuOp::DhMix, 1, {slot, 0x100000, 0x100100});
        submit(GpuOp::DhSetKey, 1, {slot, 0x100000});
        submit(GpuOp::CopyD2H, 1,
               {0x100100, 0x2000, crypto::X25519KeySize});
        expectOk();
        crypto::X25519Key mixed;
        EXPECT_TRUE(
            ram_.readAt(0x2000, mixed.data(), mixed.size()).isOk());
        Bytes secret(mixed.begin(), mixed.end());
        return crypto::Ocb(crypto::deriveAesKey(secret, "hix-session"));
    }

    /** Copy @p data into context 1 at @p va through host RAM. */
    void
    upload(Addr va, const Bytes &data)
    {
        ASSERT_TRUE(
            ram_.writeAt(0x400000, data.data(), data.size()).isOk());
        submit(GpuOp::CopyH2D, 1, {0x400000, va, data.size()});
        expectOk();
    }

    /** Read @p len bytes of context 1 at @p va back through host RAM. */
    Bytes
    download(Addr va, std::size_t len)
    {
        submit(GpuOp::CopyD2H, 1, {va, 0x800000, len});
        expectOk();
        Bytes out(len);
        EXPECT_TRUE(ram_.readAt(0x800000, out.data(), len).isOk());
        return out;
    }

    mem::PhysicalBus bus_;
    mem::PhysMem ram_;
    GpuDevice gpu_;
    pcie::RootComplex rc_;
};

TEST_F(GpuDeviceTest, IdentityRegister)
{
    EXPECT_EQ(readReg(reg::Id), 0x10de1080u);
    EXPECT_EQ(readReg(reg::Status), 1u);
}

TEST_F(GpuDeviceTest, FenceUpdatesRegister)
{
    submit(GpuOp::Fence, 0, {0xdead});
    expectOk();
    EXPECT_EQ(readReg(reg::FenceValue), 0xdeadu);
}

TEST_F(GpuDeviceTest, ContextLifecycle)
{
    submit(GpuOp::CtxCreate, 7, {});
    expectOk();
    EXPECT_EQ(gpu_.contextCount(), 1u);
    submit(GpuOp::CtxCreate, 7, {});
    expectError();  // duplicate
    submit(GpuOp::CtxDestroy, 7, {});
    expectOk();
    EXPECT_EQ(gpu_.contextCount(), 0u);
}

TEST_F(GpuDeviceTest, MapAndBar1WindowAccess)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, 2 * mem::PageSize});
    expectOk();

    // Write through the BAR1 aperture at VRAM physical 0x200000.
    std::uint8_t lo[4];
    storeLE32(lo, 0x200000);
    ASSERT_TRUE(gpu_.mmioWrite(0, reg::WindowBaseLo, lo, 4).isOk());
    Bytes data = {0xde, 0xad, 0xbe, 0xef};
    ASSERT_TRUE(gpu_.mmioWrite(1, 0, data.data(), 4).isOk());

    Bytes back(4);
    ASSERT_TRUE(gpu_.debugReadVram(0x200000, back.data(), 4).isOk());
    EXPECT_EQ(back, data);
}

TEST_F(GpuDeviceTest, DmaCopyRoundTrip)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, 1 * MiB});
    expectOk();

    Bytes payload(8192);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 7);
    ASSERT_TRUE(ram_.writeAt(0x10000, payload.data(), payload.size())
                    .isOk());

    submit(GpuOp::CopyH2D, 1, {0x10000, 0x100000, payload.size()});
    expectOk();
    submit(GpuOp::CopyD2H, 1, {0x100000, 0x30000, payload.size()});
    expectOk();

    Bytes back(payload.size());
    ASSERT_TRUE(ram_.readAt(0x30000, back.data(), back.size()).isOk());
    EXPECT_EQ(back, payload);
    EXPECT_EQ(gpu_.stats().bytesH2D, payload.size());
    EXPECT_EQ(gpu_.stats().bytesD2H, payload.size());
}

TEST_F(GpuDeviceTest, CopyToUnmappedVaFails)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::CopyH2D, 1, {0x10000, 0x900000, 4096});
    expectError();
}

TEST_F(GpuDeviceTest, ContextIsolation)
{
    // Two contexts map different VRAM; context 2 cannot reach
    // context 1's pages through its own address space.
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, mem::PageSize});
    submit(GpuOp::CtxCreate, 2, {});
    submit(GpuOp::Map, 2, {0x100000, 0x300000, mem::PageSize});
    expectOk();

    Bytes secret = {0x53, 0x3c};
    ASSERT_TRUE(ram_.writeAt(0x1000, secret.data(), 2).isOk());
    submit(GpuOp::CopyH2D, 1, {0x1000, 0x100000, 2});
    expectOk();

    // Context 2 reading its own 0x100000 sees its own (zero) page.
    submit(GpuOp::CopyD2H, 2, {0x100000, 0x2000, 2});
    expectOk();
    Bytes leak(2);
    ASSERT_TRUE(ram_.readAt(0x2000, leak.data(), 2).isOk());
    EXPECT_EQ(leak[0], 0);
    EXPECT_EQ(leak[1], 0);
}

TEST_F(GpuDeviceTest, CtxDestroyScrubsVram)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, mem::PageSize});
    Bytes secret = {0xaa, 0xbb};
    ASSERT_TRUE(ram_.writeAt(0x1000, secret.data(), 2).isOk());
    submit(GpuOp::CopyH2D, 1, {0x1000, 0x100000, 2});
    expectOk();

    submit(GpuOp::CtxDestroy, 1, {});
    expectOk();

    // The residual-data attack (CUDA leaks): a new context mapping
    // the same VRAM page must read zeros.
    Bytes back(2);
    ASSERT_TRUE(gpu_.debugReadVram(0x200000, back.data(), 2).isOk());
    EXPECT_EQ(back[0], 0);
    EXPECT_EQ(back[1], 0);
    EXPECT_GE(gpu_.stats().scrubbedBytes, mem::PageSize);
}

TEST_F(GpuDeviceTest, ScrubCommand)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, mem::PageSize});
    Bytes data = {1, 2, 3, 4};
    ASSERT_TRUE(ram_.writeAt(0x1000, data.data(), 4).isOk());
    submit(GpuOp::CopyH2D, 1, {0x1000, 0x100000, 4});
    submit(GpuOp::Scrub, 1, {0x100000, mem::PageSize});
    expectOk();
    Bytes back(4);
    ASSERT_TRUE(gpu_.debugReadVram(0x200000, back.data(), 4).isOk());
    for (auto b : back)
        EXPECT_EQ(b, 0);
}

TEST_F(GpuDeviceTest, KernelLaunchRunsRegisteredKernel)
{
    // A kernel that adds 1 to each of n u32 elements at arg0.
    KernelId kid = gpu_.kernels().add(
        "inc",
        [](const GpuMemAccessor &mem, const KernelArgs &args) -> Status {
            for (std::uint64_t i = 0; i < args[1]; ++i) {
                auto v = mem.read32(args[0] + 4 * i);
                if (!v.isOk())
                    return v.status();
                HIX_RETURN_IF_ERROR(
                    mem.write32(args[0] + 4 * i, *v + 1));
            }
            return Status::ok();
        },
        [](const KernelArgs &args) {
            return static_cast<Tick>(args[1]);
        });

    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, mem::PageSize});
    Bytes init(16, 0);
    ASSERT_TRUE(ram_.writeAt(0x1000, init.data(), init.size()).isOk());
    submit(GpuOp::CopyH2D, 1, {0x1000, 0x100000, 16});
    submit(GpuOp::KernelLaunch, 1, {kid, 0x100000, 4});
    expectOk();

    submit(GpuOp::CopyD2H, 1, {0x100000, 0x2000, 16});
    Bytes out(16);
    ASSERT_TRUE(ram_.readAt(0x2000, out.data(), out.size()).isOk());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(loadLE32(out.data() + 4 * i), 1u);
    EXPECT_EQ(gpu_.stats().kernels, 1u);
}

TEST_F(GpuDeviceTest, UnknownKernelFails)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::KernelLaunch, 1, {999});
    expectError();
}

TEST_F(GpuDeviceTest, CostRecordsDrain)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, mem::PageSize});
    Bytes d(64, 1);
    ASSERT_TRUE(ram_.writeAt(0x1000, d.data(), d.size()).isOk());
    submit(GpuOp::CopyH2D, 1, {0x1000, 0x100000, 64});
    auto costs = gpu_.drainCosts();
    ASSERT_EQ(costs.size(), 3u);
    EXPECT_EQ(costs[2].engine, GpuEngine::CopyHtoD);
    EXPECT_EQ(costs[2].bytes, 64u);
    EXPECT_GT(costs[2].duration, 0u);
    // Drained: next drain is empty.
    EXPECT_TRUE(gpu_.drainCosts().empty());
}

TEST_F(GpuDeviceTest, InGpuCryptoRoundTrip)
{
    // Host-side OCB peer agrees a key with the GPU via two-party DH,
    // encrypts, lets the GPU decrypt, and checks the plaintext.
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, 1 * MiB});
    expectOk();

    Rng rng(1);
    auto host_pair = crypto::X25519KeyPair::generate(rng);

    // Host public key -> GPU; GPU mixes and returns g^gc, then
    // latches the shared key.
    ASSERT_TRUE(ram_.writeAt(0x1000, host_pair.publicKey.data(),
                             crypto::X25519KeySize)
                    .isOk());
    submit(GpuOp::CopyH2D, 1, {0x1000, 0x100000, crypto::X25519KeySize});
    submit(GpuOp::DhMix, 1, {5, 0x100000, 0x100100});
    submit(GpuOp::DhSetKey, 1, {5, 0x100000});
    expectOk();
    EXPECT_TRUE(gpu_.keySlotActive(5));

    // Fetch the GPU's mixed value = g^c mixed with host pub = g^(hc).
    submit(GpuOp::CopyD2H, 1, {0x100100, 0x2000, crypto::X25519KeySize});
    expectOk();
    crypto::X25519Key mixed;
    ASSERT_TRUE(ram_.readAt(0x2000, mixed.data(), mixed.size()).isOk());

    // Host derives the same key: X25519(host_priv, g^c)? Two-party:
    // GPU computed key = X25519(c, host_pub) = g^(hc); host computes
    // X25519(host_priv, mixed) would be g^(h*h*c) — wrong. Instead,
    // the mixed value *is* the shared secret g^(hc).
    Bytes secret(mixed.begin(), mixed.end());
    crypto::AesKey key = crypto::deriveAesKey(secret, "hix-session");
    crypto::Ocb host_ocb(key);

    // Encrypt on the host, decrypt on the GPU.
    Bytes pt(1000);
    for (std::size_t i = 0; i < pt.size(); ++i)
        pt[i] = static_cast<std::uint8_t>(i);
    Bytes ct = host_ocb.encrypt(crypto::makeNonce(3, 9), {}, pt);
    ASSERT_TRUE(ram_.writeAt(0x3000, ct.data(), ct.size()).isOk());
    submit(GpuOp::CopyH2D, 1, {0x3000, 0x110000, ct.size()});
    submit(GpuOp::OcbDecrypt, 1, {5, 0x110000, 0x120000, pt.size(), 3, 9});
    expectOk();

    submit(GpuOp::CopyD2H, 1, {0x120000, 0x4000, pt.size()});
    Bytes out(pt.size());
    ASSERT_TRUE(ram_.readAt(0x4000, out.data(), out.size()).isOk());
    EXPECT_EQ(out, pt);

    // And the reverse: GPU encrypts, host decrypts.
    submit(GpuOp::OcbEncrypt, 1, {5, 0x120000, 0x130000, pt.size(), 3, 10});
    submit(GpuOp::CopyD2H, 1,
           {0x130000, 0x5000, pt.size() + crypto::OcbTagSize});
    expectOk();
    Bytes ct2(pt.size() + crypto::OcbTagSize);
    ASSERT_TRUE(ram_.readAt(0x5000, ct2.data(), ct2.size()).isOk());
    auto back = host_ocb.decrypt(crypto::makeNonce(3, 10), {}, ct2);
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, pt);
    EXPECT_EQ(gpu_.stats().cryptoKernels, 2u);
}

TEST_F(GpuDeviceTest, TamperedCiphertextFailsInGpu)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, 1 * MiB});

    Rng rng(2);
    auto host_pair = crypto::X25519KeyPair::generate(rng);
    ASSERT_TRUE(ram_.writeAt(0x1000, host_pair.publicKey.data(),
                             crypto::X25519KeySize)
                    .isOk());
    submit(GpuOp::CopyH2D, 1, {0x1000, 0x100000, crypto::X25519KeySize});
    submit(GpuOp::DhMix, 1, {0, 0x100000, 0x100100});
    submit(GpuOp::DhSetKey, 1, {0, 0x100000});
    submit(GpuOp::CopyD2H, 1, {0x100100, 0x2000, crypto::X25519KeySize});
    expectOk();

    crypto::X25519Key mixed;
    ASSERT_TRUE(ram_.readAt(0x2000, mixed.data(), mixed.size()).isOk());
    Bytes secret(mixed.begin(), mixed.end());
    crypto::Ocb host_ocb(crypto::deriveAesKey(secret, "hix-session"));

    Bytes pt(100, 0x41);
    Bytes ct = host_ocb.encrypt(crypto::makeNonce(1, 1), {}, pt);
    ct[10] ^= 0xff;  // the DMA attacker flips a byte in flight
    ASSERT_TRUE(ram_.writeAt(0x3000, ct.data(), ct.size()).isOk());
    submit(GpuOp::CopyH2D, 1, {0x3000, 0x110000, ct.size()});
    submit(GpuOp::OcbDecrypt, 1, {0, 0x110000, 0x120000, pt.size(), 1, 1});
    expectError();
    EXPECT_EQ(gpu_.stats().macFailures, 1u);
}

TEST_F(GpuDeviceTest, OcbLengthBeyondVramRejected)
{
    // With a live session key, an OCB command whose length exceeds
    // VRAM must set the error status before any scratch grows.
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, mem::PageSize});
    Rng rng(3);
    auto host_pair = crypto::X25519KeyPair::generate(rng);
    ASSERT_TRUE(ram_.writeAt(0x1000, host_pair.publicKey.data(),
                             crypto::X25519KeySize)
                    .isOk());
    submit(GpuOp::CopyH2D, 1, {0x1000, 0x100000, crypto::X25519KeySize});
    submit(GpuOp::DhMix, 1, {0, 0x100000, 0x100100});
    submit(GpuOp::DhSetKey, 1, {0, 0x100000});
    expectOk();
    ASSERT_TRUE(gpu_.keySlotActive(0));

    for (GpuOp op : {GpuOp::OcbEncrypt, GpuOp::OcbDecrypt}) {
        submit(op, 1, {0, 0x100000, 0x100000, 1ull << 62, 1, 1});
        expectError();
        EXPECT_NE(gpu_.lastError().find("exceeds VRAM"), std::string::npos)
            << gpu_.lastError();
    }
    EXPECT_EQ(gpu_.stats().cryptoKernels, 0u);
}

TEST_F(GpuDeviceTest, OcbOverlappingSourceAndDestination)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, 1 * MiB});
    crypto::Ocb host = agreeKey(5);
    Bytes pt(3000);
    for (std::size_t i = 0; i < pt.size(); ++i)
        pt[i] = static_cast<std::uint8_t>(i * 31 + 7);

    // Encrypt in place, then into a destination 100 bytes further on
    // that overlaps its own source.
    for (std::uint64_t shift : {0u, 100u}) {
        upload(0x110000, pt);
        submit(GpuOp::OcbEncrypt, 1,
               {5, 0x110000, 0x110000 + shift, pt.size(), 2, shift});
        expectOk();
        auto back = host.decrypt(
            crypto::makeNonce(2, shift), {},
            download(0x110000 + shift, pt.size() + crypto::OcbTagSize));
        ASSERT_TRUE(back.isOk()) << "shift " << shift;
        EXPECT_EQ(*back, pt) << "shift " << shift;
    }

    // Decrypt over its own ciphertext, shifted by 7 bytes.
    upload(0x120000, host.encrypt(crypto::makeNonce(2, 9), {}, pt));
    submit(GpuOp::OcbDecrypt, 1, {5, 0x120000, 0x120007, pt.size(), 2, 9});
    expectOk();
    EXPECT_EQ(download(0x120007, pt.size()), pt);
}

TEST_F(GpuDeviceTest, OcbFailedTagLeavesDestinationUntouched)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, 1 * MiB});
    crypto::Ocb host = agreeKey(6);
    const Bytes pt(5000, 0x41);
    Bytes ct = host.encrypt(crypto::makeNonce(4, 1), {}, pt);
    ct[4321] ^= 0x01;
    const Bytes canary(pt.size(), 0x5a);
    upload(0x110000, ct);
    upload(0x120000, canary);

    submit(GpuOp::OcbDecrypt, 1, {6, 0x110000, 0x120000, pt.size(), 4, 1});
    expectError();
    EXPECT_EQ(download(0x120000, canary.size()), canary);
    // In place, the tampered ciphertext itself is left as it was.
    submit(GpuOp::OcbDecrypt, 1, {6, 0x110000, 0x110000, pt.size(), 4, 1});
    expectError();
    EXPECT_EQ(download(0x110000, ct.size()), ct);
    EXPECT_EQ(gpu_.stats().macFailures, 2u);
    EXPECT_EQ(gpu_.stats().cryptoKernels, 0u);
}

TEST_F(GpuDeviceTest, ScrubClearsPagesWithoutMaterialisingThem)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, 16 * mem::PageSize});
    expectOk();
    // Scrubbing never-written pages (a pad buffer) allocates nothing.
    submit(GpuOp::Scrub, 1, {0x100000, 16 * mem::PageSize});
    expectOk();
    EXPECT_EQ(gpu_.vramResidentPages(), 0u);
    EXPECT_EQ(gpu_.stats().scrubbedBytes, 16 * mem::PageSize);

    // A scrub that runs into an unmapped page clears the mapped
    // prefix, partial first page included, and then faults.
    upload(0x10e000, Bytes(2 * mem::PageSize, 0xee));
    submit(GpuOp::Scrub, 1, {0x10e010, 3 * mem::PageSize});
    expectError();
    Bytes back(2 * mem::PageSize);
    ASSERT_TRUE(
        gpu_.debugReadVram(0x20e000, back.data(), back.size()).isOk());
    Bytes want(2 * mem::PageSize, 0);
    std::fill(want.begin(), want.begin() + 0x10, 0xee);
    EXPECT_EQ(back, want);
}

TEST_F(GpuDeviceTest, MapRangeWrappingPastTopIsRejected)
{
    // pa + bytes used to wrap to 4096 and pass the VRAM bound, so a
    // copy into the second page landed at VRAM PA 0, in the device
    // area below the heap.
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1,
           {0x100000, ~std::uint64_t(0) - (mem::PageSize - 1),
            2 * mem::PageSize});
    expectError();
    const Bytes secret = {0x5e, 0xc7, 0x3e, 0x70};
    ASSERT_TRUE(ram_.writeAt(0x1000, secret.data(), 4).isOk());
    submit(GpuOp::CopyH2D, 1, {0x1000, 0x101000, 4});
    expectError();
    Bytes back(4, 0xff);
    ASSERT_TRUE(gpu_.debugReadVram(0, back.data(), 4).isOk());
    EXPECT_EQ(back, Bytes(4, 0));
}

TEST_F(GpuDeviceTest, Bar1WindowWrappingPastTopIsRejected)
{
    // window_base + offset + len used to wrap, so with the window at
    // 2^64 - 4096 BAR1 offset 4096 reached VRAM PA 0.
    const Bytes secret = {0x11, 0x22, 0x33, 0x44};
    ASSERT_TRUE(gpu_.mmioWrite(1, 0, secret.data(), 4).isOk());
    std::uint8_t lo[4], hi[4];
    storeLE32(lo, 0xfffff000);
    storeLE32(hi, 0xffffffff);
    ASSERT_TRUE(gpu_.mmioWrite(0, reg::WindowBaseLo, lo, 4).isOk());
    ASSERT_TRUE(gpu_.mmioWrite(0, reg::WindowBaseHi, hi, 4).isOk());
    Bytes got(4, 0);
    EXPECT_EQ(gpu_.mmioRead(1, mem::PageSize, got.data(), 4).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(got, Bytes(4, 0));
    const Bytes junk(4, 0xee);
    EXPECT_EQ(gpu_.mmioWrite(1, mem::PageSize, junk.data(), 4).code(),
              StatusCode::InvalidArgument);
    Bytes back(4);
    ASSERT_TRUE(gpu_.debugReadVram(0, back.data(), 4).isOk());
    EXPECT_EQ(back, secret);
}

TEST(GpuContextTest, MapWrappingPastTopOfVaIsRejected)
{
    // gpu_va + i * PageSize used to wrap, mapping the second page at
    // VA 0.
    const Addr top_page = ~Addr(0) - (mem::PageSize - 1);
    GpuContext ctx(1);
    EXPECT_EQ(ctx.map(top_page, 0x200000, 2 * mem::PageSize).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(ctx.pageCount(), 0u);
    EXPECT_FALSE(ctx.translate(0).isOk());
    EXPECT_EQ(ctx.map(0x100000, top_page, 2 * mem::PageSize).code(),
              StatusCode::InvalidArgument);
    ASSERT_TRUE(ctx.map(top_page, 0x200000, mem::PageSize).isOk());
    EXPECT_EQ(ctx.unmap(top_page, 2 * mem::PageSize).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(ctx.pageCount(), 1u);
}

TEST_F(GpuDeviceTest, CryptoWithoutKeyFails)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, mem::PageSize});
    submit(GpuOp::OcbEncrypt, 1, {3, 0x100000, 0x100000, 16, 0, 1});
    expectError();
}

TEST_F(GpuDeviceTest, ResetClearsEverything)
{
    submit(GpuOp::CtxCreate, 1, {});
    submit(GpuOp::Map, 1, {0x100000, 0x200000, mem::PageSize});
    Bytes data = {7, 7};
    ASSERT_TRUE(ram_.writeAt(0x1000, data.data(), 2).isOk());
    submit(GpuOp::CopyH2D, 1, {0x1000, 0x100000, 2});
    expectOk();

    std::uint8_t one[4] = {1, 0, 0, 0};
    ASSERT_TRUE(gpu_.mmioWrite(0, reg::Reset, one, 4).isOk());
    EXPECT_EQ(gpu_.contextCount(), 0u);
    EXPECT_EQ(gpu_.stats().resets, 1u);
    Bytes back(2);
    ASSERT_TRUE(gpu_.debugReadVram(0x200000, back.data(), 2).isOk());
    EXPECT_EQ(back[0], 0);
}

TEST_F(GpuDeviceTest, BiosFlashChangesDigest)
{
    const Bytes &rom = gpu_.expansionRomImage();
    EXPECT_EQ(crypto::Sha256::digest(rom), gpu_.factoryBiosDigest());

    Bytes evil(16, 0x66);
    gpu_.flashBios(evil);
    EXPECT_NE(crypto::Sha256::digest(gpu_.expansionRomImage()),
              gpu_.factoryBiosDigest());
    EXPECT_EQ(gpu_.expansionRomImage().size(),
              gpu_.geometry().romSize);
}

TEST_F(GpuDeviceTest, Bar0RequiresAlignedAccess)
{
    std::uint8_t b[4];
    EXPECT_FALSE(gpu_.mmioRead(0, 2, b, 4).isOk());
    EXPECT_FALSE(gpu_.mmioRead(0, reg::Id, b, 2).isOk());
}

TEST_F(GpuDeviceTest, Bar1BoundsChecked)
{
    std::uint8_t b[4] = {0};
    std::uint8_t hi[4];
    storeLE32(hi, 1);  // window base = 4 GiB > VRAM
    ASSERT_TRUE(gpu_.mmioWrite(0, reg::WindowBaseHi, hi, 4).isOk());
    EXPECT_FALSE(gpu_.mmioWrite(1, 0, b, 4).isOk());
}

TEST_F(GpuDeviceTest, TruncatedCommandRejected)
{
    pushWord(static_cast<std::uint32_t>(GpuOp::Map));
    pushWord(1);
    ring();
    expectError();
}

}  // namespace
}  // namespace hix::gpu
