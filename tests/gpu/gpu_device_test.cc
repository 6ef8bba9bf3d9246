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
