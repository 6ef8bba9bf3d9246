/**
 * @file
 * Multi-GPU routing regressions on the full machine: with N GPUs on
 * the PCIe fabric, TLPs and DMA for device k touch only device k's
 * BAR windows, VRAM, and IOMMU protection domain. Cross-device DMA
 * faults cleanly instead of resolving through a sibling's mappings,
 * and no DMA reaches a device's BAR (no peer-to-peer).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "os/machine.h"

namespace hix::pcie
{
namespace
{

os::MachineConfig
pool(int gpus, bool iommu)
{
    os::MachineConfig config;
    config.gpuCount = gpus;
    config.iommuEnabled = iommu;
    return config;
}

TEST(MultiGpuRoutingTest, EveryDeviceGetsDisjointBarWindows)
{
    os::Machine machine(pool(4, false));
    std::vector<std::vector<AddrRange>> bars;
    for (int d = 0; d < 4; ++d) {
        auto ranges = machine.rootComplex().deviceBarRanges(
            machine.gpuAt(d).bdf());
        ASSERT_TRUE(ranges.isOk()) << ranges.status().message();
        ASSERT_GE(ranges->size(), 2u);
        for (const AddrRange &range : *ranges)
            EXPECT_TRUE(
                machine.rootComplex().mmioWindow().containsRange(range));
        bars.push_back(*ranges);
    }
    for (int a = 0; a < 4; ++a)
        for (int b = a + 1; b < 4; ++b)
            for (const AddrRange &ra : bars[a])
                for (const AddrRange &rb : bars[b])
                    EXPECT_FALSE(ra.overlaps(rb))
                        << "device " << a << " and " << b
                        << " share MMIO space";
}

TEST(MultiGpuRoutingTest, Bar1WriteLandsOnlyInItsDeviceVram)
{
    os::Machine machine(pool(3, false));
    const Bytes marker = {0xca, 0xfe, 0xf0, 0x0d};
    constexpr std::uint64_t Offset = 0x1200;

    for (int k = 0; k < 3; ++k) {
        auto bars = machine.rootComplex().deviceBarRanges(
            machine.gpuAt(k).bdf());
        ASSERT_TRUE(bars.isOk());
        const Addr bar1 = (*bars)[1].start();
        ASSERT_TRUE(machine.rootComplex()
                        .routeTlp(Tlp::memWrite(
                            bar1 + Offset + 0x100 * k, marker))
                        .isOk());
    }
    // Each device sees exactly its own marker at its own offset.
    for (int k = 0; k < 3; ++k) {
        for (int writer = 0; writer < 3; ++writer) {
            std::uint8_t got[4] = {};
            ASSERT_TRUE(machine.gpuAt(k)
                            .debugReadVram(Offset + 0x100 * writer,
                                           got, sizeof(got))
                            .isOk());
            if (writer == k) {
                EXPECT_EQ(std::memcmp(got, marker.data(), 4), 0);
            } else {
                const std::uint8_t zero[4] = {};
                EXPECT_EQ(std::memcmp(got, zero, 4), 0)
                    << "device " << writer << "'s BAR1 write leaked "
                    << "into device " << k << "'s VRAM";
            }
        }
    }
}

TEST(MultiGpuRoutingTest, DmaResolvesThroughTheRequesterDomainOnly)
{
    os::Machine machine(pool(3, true));
    constexpr Addr DevPage = 0x8000;
    // The same device address maps to a different physical page in
    // every device's domain.
    const Addr phys[3] = {0x40000, 0x50000, 0x60000};
    for (int k = 0; k < 3; ++k) {
        ASSERT_TRUE(machine.iommu().map(k, DevPage, phys[k]).isOk());
        const Bytes tag = {static_cast<std::uint8_t>(0xd0 + k)};
        ASSERT_TRUE(machine.ram()
                        .writeAt(phys[k], tag.data(), tag.size())
                        .isOk());
    }
    for (int k = 0; k < 3; ++k) {
        EXPECT_EQ(machine.rootComplex().dmaDomainOf(
                      machine.gpuAt(k).bdf()),
                  static_cast<mem::IommuDomain>(k));
        std::uint8_t got = 0;
        ASSERT_TRUE(machine.rootComplex()
                        .dmaRead(machine.gpuAt(k).bdf(), DevPage,
                                 &got, 1)
                        .isOk());
        EXPECT_EQ(got, 0xd0 + k)
            << "device " << k << " read through a sibling's domain";
    }
}

TEST(MultiGpuRoutingTest, CrossDeviceDmaFaultsCleanly)
{
    os::Machine machine(pool(2, true));
    constexpr Addr DevPage = 0xc000;
    ASSERT_TRUE(machine.iommu().map(0, DevPage, 0x40000).isOk());

    // Device 1 addresses the page mapped only for device 0: both
    // directions fault, and the fault changes nothing.
    std::uint8_t buf[8] = {0x11, 0x22, 0x33, 0x44};
    EXPECT_FALSE(machine.rootComplex()
                     .dmaRead(machine.gpuAt(1).bdf(), DevPage, buf, 4)
                     .isOk());
    EXPECT_FALSE(machine.rootComplex()
                     .dmaWrite(machine.gpuAt(1).bdf(), DevPage, buf, 4)
                     .isOk());
    std::uint8_t ram_byte = 0xff;
    ASSERT_TRUE(machine.ram().readAt(0x40000, &ram_byte, 1).isOk());
    EXPECT_EQ(ram_byte, 0x00);  // the faulted write never landed
    // Device 0 still works.
    EXPECT_TRUE(machine.rootComplex()
                    .dmaWrite(machine.gpuAt(0).bdf(), DevPage, buf, 4)
                    .isOk());
    ASSERT_TRUE(machine.ram().readAt(0x40000, &ram_byte, 1).isOk());
    EXPECT_EQ(ram_byte, 0x11);
}

TEST(MultiGpuRoutingTest, PeerToPeerDmaIsRefusedOnTheTranslatedPage)
{
    // HIX assumes no peer-to-peer DMA (§7). The check holds on every
    // translated page, not on the address a DMA starts at.
    const Bytes marker(mem::PageSize, 0xc5);
    const Bytes junk(2 * mem::PageSize, 0x3c);
    {
        // IOMMU on: the OS maps device 1's page 0x1000 onto device
        // 0's BAR1.
        os::Machine machine(pool(2, true));
        RootComplex &rc = machine.rootComplex();
        const Bdf gpu1 = machine.gpuAt(1).bdf();
        auto bars = rc.deviceBarRanges(machine.gpuAt(0).bdf());
        ASSERT_TRUE(bars.isOk());
        const Addr bar1 = (*bars)[1].start();
        ASSERT_TRUE(rc.routeTlp(Tlp::memWrite(bar1, marker)).isOk());
        ASSERT_TRUE(machine.iommu().map(1, 0x1000, bar1).isOk());

        Bytes got(mem::PageSize, 0);
        EXPECT_EQ(rc.dmaRead(gpu1, 0x1000, got.data(), got.size()).code(),
                  StatusCode::PermissionDenied);
        EXPECT_EQ(got, Bytes(mem::PageSize, 0))
            << "device 1 read device 0's VRAM";
        EXPECT_EQ(
            rc.dmaWrite(gpu1, 0x1000, junk.data(), mem::PageSize).code(),
            StatusCode::PermissionDenied);
        Bytes vram(mem::PageSize);
        ASSERT_TRUE(
            machine.gpuAt(0).debugReadVram(0, vram.data(), vram.size())
                .isOk());
        EXPECT_EQ(vram, marker) << "device 1 wrote device 0's VRAM";

        // A device address that only equals a window address is an
        // ordinary DMA when it maps to DRAM, and an IOMMU fault when
        // it is unmapped.
        const Addr window = rc.mmioWindow().start();
        ASSERT_TRUE(machine.iommu().map(1, window, 0x40000).isOk());
        EXPECT_TRUE(rc.dmaWrite(gpu1, window, junk.data(), 8).isOk());
        EXPECT_EQ(
            rc.dmaWrite(gpu1, window + mem::PageSize, junk.data(), 8)
                .code(),
            StatusCode::AccessFault);
    }
    for (int gpus : {2, 4}) {
        // IOMMU off: DRAM ends where the window starts, at device 0's
        // BAR1, so a DMA from the last DRAM page runs into it.
        SCOPED_TRACE(std::to_string(gpus) + " GPUs");
        os::Machine machine(pool(gpus, false));
        RootComplex &rc = machine.rootComplex();
        const Addr window = rc.mmioWindow().start();
        ASSERT_EQ(machine.config().ramSize, window);
        auto bars = rc.deviceBarRanges(machine.gpuAt(0).bdf());
        ASSERT_TRUE(bars.isOk());
        ASSERT_EQ((*bars)[1].start(), window);
        ASSERT_TRUE(rc.routeTlp(Tlp::memWrite(window, marker)).isOk());

        const Addr start = window - mem::PageSize;
        Bytes got(2 * mem::PageSize, 0xee);
        EXPECT_EQ(rc.dmaRead(start, got.data(), got.size()).code(),
                  StatusCode::PermissionDenied);
        EXPECT_EQ(Bytes(got.begin() + mem::PageSize, got.end()),
                  Bytes(mem::PageSize, 0xee))
            << "the DMA read device 0's BAR1";
        EXPECT_EQ(rc.dmaWrite(start, junk.data(), junk.size()).code(),
                  StatusCode::PermissionDenied);
        Bytes vram(mem::PageSize);
        ASSERT_TRUE(
            machine.gpuAt(0).debugReadVram(0, vram.data(), vram.size())
                .isOk());
        EXPECT_EQ(vram, marker) << "the DMA wrote device 0's VRAM";
        // The DRAM page before the window moved, as a page-by-page
        // DMA leaves it.
        Bytes last(mem::PageSize);
        ASSERT_TRUE(
            machine.ram().readAt(start, last.data(), last.size()).isOk());
        EXPECT_EQ(last, Bytes(mem::PageSize, 0x3c));
    }
}

TEST(MultiGpuRoutingTest, UnknownRequesterFallsBackToDomainZero)
{
    os::Machine machine(pool(2, true));
    EXPECT_EQ(machine.rootComplex().dmaDomainOf(Bdf{0x1f, 0, 0}), 0);
    // The legacy identity-less DMA entry point is domain 0 too: it
    // resolves through device 0's mappings.
    constexpr Addr DevPage = 0x2000;
    ASSERT_TRUE(machine.iommu().map(0, DevPage, 0x70000).isOk());
    const Bytes tag = {0x99};
    ASSERT_TRUE(
        machine.ram().writeAt(0x70000, tag.data(), tag.size()).isOk());
    std::uint8_t got = 0;
    ASSERT_TRUE(
        machine.rootComplex().dmaRead(DevPage, &got, 1).isOk());
    EXPECT_EQ(got, 0x99);
}

}  // namespace
}  // namespace hix::pcie
