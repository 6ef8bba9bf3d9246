/**
 * @file
 * Tests for root complex enumeration, TLP routing, DMA, and the HIX
 * MMIO lockdown filter — including the routing-rewrite attacks of
 * Section 5.5 of the paper.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/units.h"
#include "mem/phys_mem.h"
#include "pcie/root_complex.h"

namespace hix::pcie
{
namespace
{

/** A scratch endpoint with one 64KiB register BAR backed by memory. */
class ScratchDevice : public PcieDevice
{
  public:
    ScratchDevice()
        : PcieDevice("scratch", 0x10de, 0x1080, 0x030000),
          regs_(64 * KiB, 0)
    {
        EXPECT_TRUE(config().declareBar(0, 64 * KiB).isOk());
        EXPECT_TRUE(config().declareExpansionRom(64 * KiB).isOk());
        Bytes rom(64 * KiB, 0);
        rom[0] = 0x55;
        rom[1] = 0xaa;
        setExpansionRomImage(std::move(rom));
    }

    Status
    mmioRead(int bar, std::uint64_t offset, std::uint8_t *data,
             std::size_t len) override
    {
        EXPECT_EQ(bar, 0);
        std::memcpy(data, regs_.data() + offset, len);
        return Status::ok();
    }

    Status
    mmioWrite(int bar, std::uint64_t offset, const std::uint8_t *data,
              std::size_t len) override
    {
        EXPECT_EQ(bar, 0);
        std::memcpy(regs_.data() + offset, data, len);
        return Status::ok();
    }

    Bytes regs_;
};

class RootComplexTest : public ::testing::Test
{
  protected:
    RootComplexTest()
        : ram_("ram", 64 * MiB),
          rc_(AddrRange(0xe0000000, 256 * MiB), &ram_bus_, &iommu_)
    {
        EXPECT_TRUE(
            ram_bus_.attach(AddrRange(0, 64 * MiB), &ram_).isOk());
        EXPECT_TRUE(rc_.attachDevice(0, &dev_).isOk());
        EXPECT_TRUE(rc_.enumerate().isOk());
    }

    mem::PhysicalBus ram_bus_;
    mem::PhysMem ram_;
    mem::Iommu iommu_;
    ScratchDevice dev_;
    RootComplex rc_;
};

TEST_F(RootComplexTest, EnumerationAssignsBdfAndBars)
{
    EXPECT_EQ(dev_.bdf().bus, 1);
    EXPECT_EQ(dev_.bdf().device, 0);
    EXPECT_NE(dev_.config().barBase(0), 0u);
    EXPECT_TRUE(rc_.isRealDevice(dev_.bdf()));
    EXPECT_FALSE(rc_.isRealDevice(Bdf{7, 0, 0}));

    auto ranges = rc_.deviceBarRanges(dev_.bdf());
    ASSERT_TRUE(ranges.isOk());
    ASSERT_EQ(ranges->size(), 1u);
    EXPECT_EQ((*ranges)[0].size(), 64 * KiB);
}

TEST_F(RootComplexTest, MemTlpReachesDeviceBar)
{
    const Addr bar = dev_.config().barBase(0);
    Bytes data = {0x11, 0x22, 0x33, 0x44};
    ASSERT_TRUE(rc_.routeTlp(Tlp::memWrite(bar + 0x100, data)).isOk());
    Bytes out;
    ASSERT_TRUE(rc_.routeTlp(Tlp::memRead(bar + 0x100, 4), &out).isOk());
    EXPECT_EQ(out, data);
    EXPECT_EQ(dev_.regs_[0x100], 0x11);
}

TEST_F(RootComplexTest, BusTargetInterfaceRoutesMmio)
{
    const Addr bar = dev_.config().barBase(0);
    const std::uint64_t offset = bar - rc_.mmioWindow().start();
    Bytes data = {0xab};
    ASSERT_TRUE(rc_.writeAt(offset, data.data(), 1).isOk());
    EXPECT_EQ(dev_.regs_[0], 0xab);
}

TEST_F(RootComplexTest, UnroutableMemTlpFails)
{
    Bytes out;
    auto st = rc_.routeTlp(Tlp::memRead(0xefff0000, 4), &out);
    EXPECT_EQ(st.code(), StatusCode::NotFound);
    EXPECT_EQ(rc_.stats().unroutable, 1u);
}

TEST_F(RootComplexTest, ExpansionRomReadable)
{
    const Addr rom = dev_.config().expansionRomBase();
    ASSERT_NE(rom, 0u);
    Bytes out;
    ASSERT_TRUE(rc_.routeTlp(Tlp::memRead(rom, 2), &out).isOk());
    EXPECT_EQ(out[0], 0x55);
    EXPECT_EQ(out[1], 0xaa);
    // ROM is read-only.
    EXPECT_FALSE(rc_.routeTlp(Tlp::memWrite(rom, {0})).isOk());
}

TEST_F(RootComplexTest, ConfigReadWriteRoundTrip)
{
    auto id = rc_.configRead(dev_.bdf(), cfg::VendorId);
    ASSERT_TRUE(id.isOk());
    EXPECT_EQ(*id & 0xffff, 0x10deu);

    // Rewriting a BAR while unlocked is allowed (the OS can do this
    // pre-HIX).
    ASSERT_TRUE(
        rc_.configWrite(dev_.bdf(), cfg::Bar0, 0xe8000000).isOk());
    EXPECT_EQ(dev_.config().barBase(0), 0xe8000000u);
}

TEST_F(RootComplexTest, ConfigAccessToAbsentFunctionFails)
{
    EXPECT_FALSE(rc_.configRead(Bdf{9, 0, 0}, cfg::VendorId).isOk());
}

TEST_F(RootComplexTest, LockdownBlocksEndpointBarRewrite)
{
    ASSERT_TRUE(rc_.lockPath(dev_.bdf()).isOk());
    const Addr before = dev_.config().barBase(0);

    auto st = rc_.configWrite(dev_.bdf(), cfg::Bar0, 0xe8000000);
    EXPECT_EQ(st.code(), StatusCode::LockdownViolation);
    EXPECT_EQ(dev_.config().barBase(0), before);
    EXPECT_EQ(rc_.stats().lockdownDrops, 1u);
}

TEST_F(RootComplexTest, LockdownBlocksRomBarRewrite)
{
    ASSERT_TRUE(rc_.lockPath(dev_.bdf()).isOk());
    EXPECT_EQ(
        rc_.configWrite(dev_.bdf(), cfg::ExpansionRom, 0).code(),
        StatusCode::LockdownViolation);
}

TEST_F(RootComplexTest, LockdownBlocksBridgeRegisters)
{
    ASSERT_TRUE(rc_.lockPath(dev_.bdf()).isOk());
    const Bdf port_bdf{0, 0, 0};
    EXPECT_EQ(
        rc_.configWrite(port_bdf, cfg::BusNumbers, 0x00050500).code(),
        StatusCode::LockdownViolation);
    EXPECT_EQ(
        rc_.configWrite(port_bdf, cfg::MemoryWindow, 0).code(),
        StatusCode::LockdownViolation);
}

TEST_F(RootComplexTest, LockdownBlocksSizingProbe)
{
    // Section 5.6: the all-ones sizing write is also rejected once
    // locked.
    ASSERT_TRUE(rc_.lockPath(dev_.bdf()).isOk());
    EXPECT_EQ(
        rc_.configWrite(dev_.bdf(), cfg::Bar0, 0xffffffff).code(),
        StatusCode::LockdownViolation);
}

TEST_F(RootComplexTest, LockdownAllowsBenignRegisters)
{
    ASSERT_TRUE(rc_.lockPath(dev_.bdf()).isOk());
    // A non-routing register (e.g. a scratch write to 0x40) passes.
    EXPECT_TRUE(rc_.configWrite(dev_.bdf(), 0x40, 0x1234).isOk());
    // Reads are never blocked.
    EXPECT_TRUE(rc_.configRead(dev_.bdf(), cfg::Bar0).isOk());
}

TEST_F(RootComplexTest, LockPathRejectsEmulatedDevice)
{
    EXPECT_EQ(rc_.lockPath(Bdf{9, 0, 0}).code(), StatusCode::NotFound);
}

TEST_F(RootComplexTest, LockPathIdempotenceRejected)
{
    ASSERT_TRUE(rc_.lockPath(dev_.bdf()).isOk());
    EXPECT_EQ(rc_.lockPath(dev_.bdf()).code(),
              StatusCode::AlreadyExists);
}

TEST_F(RootComplexTest, UnlockRestoresWritability)
{
    ASSERT_TRUE(rc_.lockPath(dev_.bdf()).isOk());
    rc_.unlockAll();
    EXPECT_TRUE(
        rc_.configWrite(dev_.bdf(), cfg::Bar0, 0xe8000000).isOk());
}

TEST_F(RootComplexTest, MeasurePathChangesWithRouting)
{
    auto m1 = rc_.measurePath(dev_.bdf());
    ASSERT_TRUE(m1.isOk());
    // Rewrite a BAR (unlocked) and re-measure: digest must change.
    ASSERT_TRUE(
        rc_.configWrite(dev_.bdf(), cfg::Bar0, 0xe8000000).isOk());
    auto m2 = rc_.measurePath(dev_.bdf());
    ASSERT_TRUE(m2.isOk());
    EXPECT_NE(*m1, *m2);
}

TEST_F(RootComplexTest, DmaReadWrite)
{
    Bytes data = {9, 8, 7, 6};
    ASSERT_TRUE(rc_.dmaWrite(0x1000, data.data(), data.size()).isOk());
    Bytes back(4);
    ASSERT_TRUE(rc_.dmaRead(0x1000, back.data(), back.size()).isOk());
    EXPECT_EQ(back, data);

    Bytes ram_view(4);
    ASSERT_TRUE(ram_.readAt(0x1000, ram_view.data(), 4).isOk());
    EXPECT_EQ(ram_view, data);
}

TEST_F(RootComplexTest, DmaHonoursIommu)
{
    iommu_.setEnabled(true);
    ASSERT_TRUE(iommu_.map(0x10000, 0x20000).isOk());
    Bytes data = {1, 2, 3};
    ASSERT_TRUE(rc_.dmaWrite(0x10000, data.data(), data.size()).isOk());
    Bytes ram_view(3);
    ASSERT_TRUE(ram_.readAt(0x20000, ram_view.data(), 3).isOk());
    EXPECT_EQ(ram_view, data);
    // Unmapped device address faults.
    EXPECT_FALSE(rc_.dmaWrite(0x30000, data.data(), 3).isOk());
}

TEST_F(RootComplexTest, PeerToPeerDmaRejected)
{
    Bytes data = {1};
    EXPECT_EQ(rc_.dmaWrite(rc_.mmioWindow().start() + 0x100,
                           data.data(), 1)
                  .code(),
              StatusCode::PermissionDenied);
}

TEST_F(RootComplexTest, DmaWrappingPast2To64Fails)
{
    // Device pages 0 and 2^64 - 4096 both map: a two-page DMA at the
    // top page used to move its second page through device page 0.
    const Addr top_page = ~Addr(0) - (mem::PageSize - 1);
    iommu_.setEnabled(true);
    ASSERT_TRUE(iommu_.map(0, 0x10000).isOk());
    ASSERT_TRUE(iommu_.map(top_page, 0x20000).isOk());

    Bytes data(2 * mem::PageSize, 0x5a);
    EXPECT_EQ(rc_.dmaWrite(top_page, data.data(), data.size()).code(),
              StatusCode::InvalidArgument);
    Bytes back(2 * mem::PageSize, 0xee);
    EXPECT_EQ(rc_.dmaRead(top_page, back.data(), back.size()).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(back, Bytes(back.size(), 0xee)) << "the read moved bytes";
    for (Addr pa : {Addr(0x10000), Addr(0x20000)}) {
        Bytes page(mem::PageSize, 0xee);
        ASSERT_TRUE(ram_.readAt(pa, page.data(), page.size()).isOk());
        EXPECT_EQ(page, Bytes(mem::PageSize, 0)) << "RAM at " << pa;
    }

    // A DMA that ends exactly at 2^64 is legal.
    EXPECT_TRUE(rc_.dmaWrite(top_page, data.data(), mem::PageSize).isOk());
    EXPECT_TRUE(rc_.dmaRead(~Addr(0), back.data(), 1).isOk());
    EXPECT_EQ(back[0], 0x5a);
}

TEST_F(RootComplexTest, DuplicatePortRejected)
{
    ScratchDevice other;
    EXPECT_EQ(rc_.attachDevice(0, &other).code(),
              StatusCode::FailedPrecondition);
}

TEST(RootComplexMultiDeviceTest, TwoDevicesGetDisjointWindows)
{
    mem::PhysicalBus ram_bus;
    mem::PhysMem ram("ram", 16 * MiB);
    ASSERT_TRUE(ram_bus.attach(AddrRange(0, 16 * MiB), &ram).isOk());

    ScratchDevice a, b;
    RootComplex rc(AddrRange(0xe0000000, 256 * MiB), &ram_bus, nullptr);
    ASSERT_TRUE(rc.attachDevice(0, &a).isOk());
    ASSERT_TRUE(rc.attachDevice(1, &b).isOk());
    ASSERT_TRUE(rc.enumerate().isOk());

    EXPECT_EQ(a.bdf().bus, 1);
    EXPECT_EQ(b.bdf().bus, 2);
    AddrRange ra(a.config().barBase(0), a.config().barSize(0));
    AddrRange rb(b.config().barBase(0), b.config().barSize(0));
    EXPECT_FALSE(ra.overlaps(rb));

    // Each routed write lands on the right device.
    Bytes da = {0xaa}, db = {0xbb};
    ASSERT_TRUE(rc.routeTlp(Tlp::memWrite(ra.start(), da)).isOk());
    ASSERT_TRUE(rc.routeTlp(Tlp::memWrite(rb.start(), db)).isOk());
    EXPECT_EQ(a.regs_[0], 0xaa);
    EXPECT_EQ(b.regs_[0], 0xbb);

    // Locking device A leaves device B's registers writable.
    ASSERT_TRUE(rc.lockPath(a.bdf()).isOk());
    EXPECT_FALSE(rc.configWrite(a.bdf(), cfg::Bar0, 0).isOk());
    EXPECT_TRUE(
        rc.configWrite(b.bdf(), cfg::Bar0, 0xe9000000).isOk());
}

}  // namespace
}  // namespace hix::pcie
