/**
 * @file
 * Attack-matrix pool coverage: on a multi-GPU machine the victim's
 * session lives on one pool device, and every HIX wall must hold
 * *there* — while the same attacker primitives aimed at a sibling
 * device find no channel to the victim at all. Cross-device cells
 * therefore expect no-channel outcomes (zero bytes, no-op redirects,
 * clean sibling VRAM), not just "denied".
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "mem/phys_mem.h"
#include "testing/scenario.h"

namespace hix::harness
{
namespace
{

/** Thresholds separating "recovered the data" from "noise" (same
 *  values the built-in matrix cells use). */
constexpr double LeakThreshold = 0.9;
constexpr double NoiseThreshold = 0.2;
constexpr std::uint64_t ScanBytes = 64 * 1024 * 1024;

ScenarioOptions
poolVictim(RuntimeKind kind, int gpus, int device, bool iommu = false)
{
    ScenarioOptions opts;
    opts.runtime = kind;
    opts.iommu = iommu;
    opts.gpuCount = gpus;
    opts.victimDevice = device;
    return opts;
}

Bytes
needleOf(const VictimScenario &s)
{
    return Bytes(s.secret().begin(), s.secret().begin() + 64);
}

/** Where @p needle starts in pool device @p device's VRAM, scanning
 *  its first ScanBytes (a test oracle, not an attacker ability). */
std::optional<Addr>
vramOffsetOf(VictimScenario &s, const Bytes &needle, int device)
{
    Bytes region(ScanBytes);
    if (!s.machine()
             .gpuAt(device)
             .debugReadVram(0, region.data(), region.size())
             .isOk())
        return std::nullopt;
    auto it = std::search(region.begin(), region.end(), needle.begin(),
                          needle.end());
    if (it == region.end())
        return std::nullopt;
    return static_cast<Addr>(it - region.begin());
}

// The dram-snoop wall is device-independent DRAM, but the victim's
// staging traffic originates from its own device: HIX must leave
// only ciphertext there even when the session runs on device 1.
TEST(PoolSecurityTest, HixDramSnoopStaysCiphertextOnANonZeroDevice)
{
    VictimScenario s(poolVictim(RuntimeKind::Hix, 2, 1));
    ASSERT_TRUE(s.setup().isOk());

    Bytes captured;
    s.onOp(s.htodChunkLabel(), 2, [&] {
        auto r = s.attacker().readDram(s.stagingPaddr(),
                                       s.chunkBytes());
        if (r.isOk())
            captured = std::move(*r);
    });
    ASSERT_TRUE(s.upload().isOk());
    ASSERT_FALSE(captured.empty()) << "mid-transfer hook never fired";

    const double ratio = VictimScenario::bestChunkMatch(
        captured, s.secret(), s.chunkBytes());
    EXPECT_LE(ratio, NoiseThreshold)
        << "staging DRAM of a device-1 session leaked plaintext";
}

// Same-device channel exists (baseline leaks by design), but only on
// the device actually hosting the session: a sibling's VRAM never
// holds a byte of the victim's data.
TEST(PoolSecurityTest, BaselineSecretLandsOnlyOnItsOwnDeviceVram)
{
    VictimScenario s(poolVictim(RuntimeKind::Baseline, 2, 1));
    ASSERT_TRUE(s.setup().isOk());
    ASSERT_TRUE(s.upload().isOk());

    const Bytes needle = needleOf(s);
    EXPECT_TRUE(s.vramContains(needle, ScanBytes, 1))
        << "secret missing from the victim's own device";
    EXPECT_FALSE(s.vramContains(needle, ScanBytes, 0))
        << "secret crossed to a sibling device's VRAM";
}

// BAR1 theft through the aperture of the *wrong* device reads that
// device's (empty) VRAM: a working attack primitive, but no channel.
TEST(PoolSecurityTest, SiblingBar1ApertureCarriesNoVictimData)
{
    VictimScenario s(poolVictim(RuntimeKind::Baseline, 2, 1));
    ASSERT_TRUE(s.setup().isOk());
    ASSERT_TRUE(s.upload().isOk());

    auto vram_pa = s.vramPaddr();
    ASSERT_TRUE(vram_pa.isOk());
    const ProcessId evil = s.makeEvilProcess();

    // Positive control: through the victim device's own aperture the
    // unprotected baseline leaks plaintext.
    auto own = s.attacker().mapAndRead(evil, s.bar1Base(1) + *vram_pa,
                                       s.chunkBytes());
    ASSERT_TRUE(own.isOk()) << own.status().message();
    EXPECT_GE(VictimScenario::bestChunkMatch(*own, s.secret(),
                                             s.chunkBytes()),
              LeakThreshold);

    // Cross-device cell: same offset through device 0's aperture.
    auto sibling = s.attacker().mapAndRead(
        evil, s.bar1Base(0) + *vram_pa, s.chunkBytes());
    ASSERT_TRUE(sibling.isOk()) << sibling.status().message();
    EXPECT_LE(VictimScenario::bestChunkMatch(*sibling, s.secret(),
                                             s.chunkBytes()),
              NoiseThreshold)
        << "device 0's BAR1 window exposed device 1's VRAM";
}

// The GECS/TGMR aperture lock protects the enclave's own device; a
// sibling aperture may map, but there is nothing of the victim's
// behind it.
TEST(PoolSecurityTest, HixApertureLockHoldsOnItsDeviceMidKernel)
{
    VictimScenario s(poolVictim(RuntimeKind::Hix, 2, 1));
    ASSERT_TRUE(s.setup().isOk());
    ASSERT_TRUE(s.upload().isOk());

    const ProcessId evil = s.makeEvilProcess();
    Result<Bytes> own = errUnavailable("hook did not fire");
    Result<Bytes> sibling = errUnavailable("hook did not fire");
    s.onOp("submit", 1, [&] {
        own = s.attacker().mapAndRead(evil, s.bar1Base(1),
                                      s.chunkBytes());
        sibling = s.attacker().mapAndRead(evil, s.bar1Base(0),
                                          s.chunkBytes());
    });
    ASSERT_TRUE(s.launchKernel().isOk());

    EXPECT_FALSE(own.isOk())
        << "enclave-owned aperture mapped on device 1";
    if (sibling.isOk()) {
        EXPECT_LE(VictimScenario::bestChunkMatch(*sibling, s.secret(),
                                                 s.chunkBytes()),
                  NoiseThreshold)
            << "sibling aperture somehow held victim plaintext";
    }
}

// Rewriting the IOMMU table of a *sibling's* protection domain is a
// no-op for the victim: its DMA resolves through its own domain, the
// transfer completes untouched, and the attacker frame stays empty.
TEST(PoolSecurityTest, DmaRedirectInASiblingDomainIsANoOp)
{
    VictimScenario s(poolVictim(RuntimeKind::Baseline, 2, 1, true));
    ASSERT_TRUE(s.setup().isOk());

    auto frame = s.evilFrame(mem::PageSize, 0x00);
    ASSERT_TRUE(frame.isOk());
    const Addr staged_page = mem::pageBase(s.stagingPaddr());
    s.onOp(s.htodChunkLabel(), 2, [&] {
        // Domain 0 belongs to device 0; the victim runs on device 1.
        (void)s.attacker().redirectDma(staged_page, *frame, 0);
    });
    ASSERT_TRUE(s.upload().isOk())
        << "sibling-domain rewrite broke the victim's own DMA";
    ASSERT_TRUE(s.launchKernel().isOk());
    auto back = s.download();
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, s.secret());

    auto diverted = s.attacker().readDram(*frame, s.chunkBytes());
    ASSERT_TRUE(diverted.isOk());
    EXPECT_EQ(*diverted, Bytes(s.chunkBytes(), 0x00))
        << "victim bytes were DMA-ed through a sibling's domain";
}

// HIX has no peer-to-peer DMA (§7). Mid-kernel, the OS maps device
// 0's DMA pages onto device 1's BAR1, right over the victim's
// plaintext, and has device 0 read and then overwrite them. Both DMAs
// are refused: no victim byte comes back, and its VRAM and its result
// are untouched.
TEST(PoolSecurityTest, SiblingDmaCannotReachTheVictimsBar1)
{
    VictimScenario s(poolVictim(RuntimeKind::Hix, 2, 1, true));
    ASSERT_TRUE(s.setup().isOk());
    ASSERT_TRUE(s.upload().isOk());

    constexpr Addr SiblingIova = 0x7000000;
    const std::uint64_t len = s.secret().size() + mem::PageSize;
    bool fired = false;
    Status read_st;
    Status write_st;
    Bytes stolen(len, 0);
    Bytes before(len);
    Bytes after(len);
    s.onOp("submit", 1, [&] {
        fired = true;
        const auto offset = vramOffsetOf(s, needleOf(s), 1);
        ASSERT_TRUE(offset.has_value()) << "no plaintext in device 1";
        const Addr first = mem::pageBase(*offset);
        for (std::uint64_t p = 0; p < len; p += mem::PageSize)
            ASSERT_TRUE(s.machine()
                            .iommu()
                            .map(0, SiblingIova + p,
                                 s.bar1Base(1) + first + p)
                            .isOk());
        pcie::RootComplex &rc = s.machine().rootComplex();
        const pcie::Bdf sibling = s.machine().gpuAt(0).bdf();
        gpu::GpuDevice &victim = s.machine().gpuAt(1);
        ASSERT_TRUE(victim.debugReadVram(first, before.data(), len).isOk());
        read_st = rc.dmaRead(sibling, SiblingIova, stolen.data(), len);
        const Bytes junk(len, 0x3c);
        write_st = rc.dmaWrite(sibling, SiblingIova, junk.data(), len);
        ASSERT_TRUE(victim.debugReadVram(first, after.data(), len).isOk());
    });
    ASSERT_TRUE(s.launchKernel().isOk());
    ASSERT_TRUE(fired) << "mid-kernel hook never fired";

    EXPECT_EQ(read_st.code(), StatusCode::PermissionDenied);
    EXPECT_EQ(write_st.code(), StatusCode::PermissionDenied);
    EXPECT_EQ(stolen, Bytes(len, 0)) << "sibling DMA read victim VRAM";
    EXPECT_EQ(after, before) << "sibling DMA wrote victim VRAM";
    auto back = s.download();
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, s.secret());
}

// The in-GPU MAC wall holds per-device: redirecting the victim's
// staging page in its *own* domain is still caught on device 1, and
// the sibling device never even sees a MAC event.
TEST(PoolSecurityTest, HixDetectsDmaRedirectOnItsOwnDevice)
{
    VictimScenario s(poolVictim(RuntimeKind::Hix, 2, 1, true));
    ASSERT_TRUE(s.setup().isOk());

    auto frame = s.evilFrame(mem::PageSize, 0x00);
    ASSERT_TRUE(frame.isOk());
    const Addr staged_page = mem::pageBase(s.stagingPaddr());
    s.onOp(s.htodChunkLabel(), 1, [&] {
        (void)s.attacker().redirectDma(staged_page, *frame, 1);
    });
    Status upload = s.upload();
    ASSERT_FALSE(upload.isOk())
        << "redirected chunk was ingested without complaint";
    EXPECT_GT(s.machine().gpuAt(1).stats().macFailures, 0u)
        << "victim device never ran its MAC check";
    EXPECT_EQ(s.machine().gpuAt(0).stats().macFailures, 0u)
        << "sibling device saw MAC traffic it should never get";
}

// Session-teardown scrubbing is a per-device property: the secret
// lives (in plaintext) only in the victim device's VRAM while the
// session runs, and is gone from that device after teardown.
TEST(PoolSecurityTest, HixVramScrubIsPerDevice)
{
    VictimScenario s(poolVictim(RuntimeKind::Hix, 2, 1));
    ASSERT_TRUE(s.setup().isOk());
    ASSERT_TRUE(s.upload().isOk());
    ASSERT_TRUE(s.launchKernel().isOk());

    const Bytes needle = needleOf(s);
    ASSERT_TRUE(s.vramContains(needle, ScanBytes, 1))
        << "secret never reached the victim device";
    EXPECT_FALSE(s.vramContains(needle, ScanBytes, 0));
    ASSERT_TRUE(s.teardown().isOk());
    EXPECT_FALSE(s.vramContains(needle, ScanBytes, 1))
        << "secret survived teardown on the victim device";
    EXPECT_FALSE(s.vramContains(needle, ScanBytes, 0));
}

// A pooled HIX victim on device 0 must behave exactly like the
// single-GPU scenario the rest of the matrix pins: the pool refactor
// may not weaken the default column.
TEST(PoolSecurityTest, DeviceZeroPoolVictimMatchesSingleGpuWalls)
{
    VictimScenario s(poolVictim(RuntimeKind::Hix, 2, 0));
    ASSERT_TRUE(s.setup().isOk());

    Bytes captured;
    s.onOp(s.htodChunkLabel(), 2, [&] {
        auto r = s.attacker().readDram(s.stagingPaddr(),
                                       s.chunkBytes());
        if (r.isOk())
            captured = std::move(*r);
    });
    ASSERT_TRUE(s.upload().isOk());
    ASSERT_FALSE(captured.empty());
    EXPECT_LE(VictimScenario::bestChunkMatch(captured, s.secret(),
                                             s.chunkBytes()),
              NoiseThreshold);
    ASSERT_TRUE(s.launchKernel().isOk());
    auto back = s.download();
    ASSERT_TRUE(back.isOk());
    EXPECT_EQ(*back, s.secret());
    ASSERT_TRUE(s.teardown().isOk());
}

}  // namespace
}  // namespace hix::harness
