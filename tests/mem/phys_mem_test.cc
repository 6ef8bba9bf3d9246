/**
 * @file
 * Tests for sparse physical memory and bus routing.
 */

#include <gtest/gtest.h>

#include "common/units.h"
#include "mem/phys_bus.h"
#include "mem/phys_mem.h"

namespace hix::mem
{
namespace
{

TEST(PhysMemTest, UntouchedReadsZero)
{
    PhysMem ram("ram", 1 * MiB);
    Bytes buf(64, 0xaa);
    ASSERT_TRUE(ram.readAt(0x1000, buf.data(), buf.size()).isOk());
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(ram.residentPages(), 0u);
}

TEST(PhysMemTest, WriteReadRoundTrip)
{
    PhysMem ram("ram", 1 * MiB);
    Bytes data = {1, 2, 3, 4, 5};
    ASSERT_TRUE(ram.writeAt(0x800, data.data(), data.size()).isOk());
    Bytes back(5);
    ASSERT_TRUE(ram.readAt(0x800, back.data(), back.size()).isOk());
    EXPECT_EQ(back, data);
    EXPECT_EQ(ram.residentPages(), 1u);
}

TEST(PhysMemTest, CrossPageAccess)
{
    PhysMem ram("ram", 1 * MiB);
    Bytes data(PageSize + 100, 0x5c);
    ASSERT_TRUE(
        ram.writeAt(PageSize - 50, data.data(), data.size()).isOk());
    Bytes back(data.size());
    ASSERT_TRUE(
        ram.readAt(PageSize - 50, back.data(), back.size()).isOk());
    EXPECT_EQ(back, data);
    EXPECT_EQ(ram.residentPages(), 3u);
}

TEST(PhysMemTest, OutOfBoundsRejected)
{
    PhysMem ram("ram", 4096);
    Bytes buf(10);
    EXPECT_FALSE(ram.readAt(4090, buf.data(), buf.size()).isOk());
    EXPECT_FALSE(ram.writeAt(4096, buf.data(), 1).isOk());
    EXPECT_TRUE(ram.readAt(4086, buf.data(), buf.size()).isOk());
}

TEST(PhysMemTest, HugeOffsetOverflowRejected)
{
    // Regression: `offset + len` used to wrap 64-bit arithmetic for
    // offsets near 2^64 and slip past the bounds check, reading or
    // writing through the sparse page store.
    PhysMem ram("ram", 1 * MiB);
    Bytes buf(16, 0x7f);
    EXPECT_FALSE(
        ram.readAt(~std::uint64_t(0) - 7, buf.data(), buf.size())
            .isOk());
    EXPECT_FALSE(ram.writeAt(~std::uint64_t(0), buf.data(), 1).isOk());
    EXPECT_FALSE(ram.zeroAt(~std::uint64_t(0) - 2, 8).isOk());
    EXPECT_EQ(ram.residentPages(), 0u);
}

TEST(PhysMemTest, LenLargerThanMemoryRejected)
{
    PhysMem ram("ram", 4096);
    Bytes buf(8192);
    EXPECT_FALSE(ram.readAt(0, buf.data(), buf.size()).isOk());
    EXPECT_FALSE(ram.writeAt(0, buf.data(), buf.size()).isOk());
    // Edge: the full memory in one access is still fine.
    EXPECT_TRUE(ram.readAt(0, buf.data(), 4096).isOk());
}

TEST(PhysMemTest, ZeroAtScrubs)
{
    PhysMem ram("ram", 64 * KiB);
    Bytes data(1000, 0xee);
    ASSERT_TRUE(ram.writeAt(100, data.data(), data.size()).isOk());
    ASSERT_TRUE(ram.zeroAt(100, 1000).isOk());
    Bytes back(1000);
    ASSERT_TRUE(ram.readAt(100, back.data(), back.size()).isOk());
    for (auto b : back)
        EXPECT_EQ(b, 0);
}

TEST(PhysMemTest, ZeroAtWholePageDropsToSparse)
{
    PhysMem ram("ram", 64 * KiB);
    Bytes data(PageSize, 0xee);
    ASSERT_TRUE(ram.writeAt(PageSize, data.data(), data.size()).isOk());
    ASSERT_TRUE(ram.writeAt(3 * PageSize + 8, data.data(), 16).isOk());
    EXPECT_EQ(ram.residentPages(), 2u);
    // Scrubbing a whole page frees it instead of memset-ing it.
    ASSERT_TRUE(ram.zeroAt(PageSize, PageSize).isOk());
    EXPECT_EQ(ram.residentPages(), 1u);
    // Partial scrub keeps the page materialised.
    ASSERT_TRUE(ram.zeroAt(3 * PageSize + 8, 16).isOk());
    EXPECT_EQ(ram.residentPages(), 1u);
    Bytes back(PageSize);
    ASSERT_TRUE(ram.readAt(PageSize, back.data(), back.size()).isOk());
    for (auto b : back)
        EXPECT_EQ(b, 0);
}

TEST(PhysMemTest, RecycledRegionReadsZero)
{
    // A destroyed memory's region goes back to the free list with its
    // bytes intact; the next memory of the same size reuses it and
    // must still read zero everywhere it has not written.
    constexpr std::uint64_t Size = 256 * KiB;
    const std::uint8_t *recycled = nullptr;
    {
        PhysMem old("old", Size);
        Bytes pattern(Size, 0xa7);
        ASSERT_TRUE(old.writeAt(0, pattern.data(), Size).isOk());
        recycled = old.view(0, Size);
    }
    PhysMem ram("ram", Size);
    EXPECT_EQ(ram.residentPages(), 0u);
    Bytes back(Size, 0xff);
    ASSERT_TRUE(ram.readAt(0, back.data(), Size).isOk());
    EXPECT_EQ(back, Bytes(Size, 0));
    EXPECT_EQ(ram.residentPages(), 0u);

    // A view privatises its pages: each starts out as zeros.
    std::uint8_t *view = ram.view(PageSize + 100, 2 * PageSize);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(Bytes(view, view + 2 * PageSize), Bytes(2 * PageSize, 0));

    // A partial write keeps the rest of its page zero.
    const std::uint8_t one = 1;
    ASSERT_TRUE(ram.writeAt(10 * PageSize + 9, &one, 1).isOk());
    Bytes page(PageSize);
    ASSERT_TRUE(ram.readAt(10 * PageSize, page.data(), PageSize).isOk());
    Bytes want(PageSize, 0);
    want[9] = 1;
    EXPECT_EQ(page, want);
    EXPECT_EQ(ram.residentPages(), 4u);
    // The same region came back (most recently released first).
    EXPECT_EQ(ram.view(0, 1), recycled);
}

TEST(PhysMemTest, ViewIsOneSpanOverPrivatePages)
{
    PhysMem ram("ram", 1 * MiB);
    Bytes data(3 * PageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 13);
    ASSERT_TRUE(ram.writeAt(PageSize, data.data(), data.size()).isOk());
    EXPECT_EQ(ram.residentPages(), 3u);

    // The written pages plus one absent page, lent as one span: the
    // absent page becomes private and reads as zeros.
    std::uint8_t *view = ram.view(PageSize, data.size() + PageSize);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(Bytes(view, view + data.size()), data);
    EXPECT_EQ(Bytes(view + data.size(), view + data.size() + PageSize),
              Bytes(PageSize, 0));
    EXPECT_EQ(ram.residentPages(), 4u);
    view[0] ^= 0xff;
    std::uint8_t got = 0;
    ASSERT_TRUE(ram.readAt(PageSize, &got, 1).isOk());
    EXPECT_EQ(got, static_cast<std::uint8_t>(data[0] ^ 0xff));

    EXPECT_EQ(ram.view(1 * MiB - 4, 8), nullptr);
    EXPECT_EQ(ram.view(0, 0), nullptr);
}

TEST(PhysBusTest, RoutesByRange)
{
    PhysMem ram("ram", 1 * MiB);
    PhysMem mmio("mmio", 64 * KiB);
    PhysicalBus bus;
    ASSERT_TRUE(bus.attach(AddrRange(0, 1 * MiB), &ram).isOk());
    ASSERT_TRUE(
        bus.attach(AddrRange(0xf0000000, 64 * KiB), &mmio).isOk());

    Bytes data = {0xde, 0xad};
    ASSERT_TRUE(bus.write(0xf0000010, data.data(), data.size()).isOk());
    Bytes back(2);
    ASSERT_TRUE(mmio.readAt(0x10, back.data(), 2).isOk());
    EXPECT_EQ(back, data);

    EXPECT_EQ(bus.targetAt(0x100), &ram);
    EXPECT_EQ(bus.targetAt(0xf0000000), &mmio);
    EXPECT_EQ(bus.targetAt(0x50000000), nullptr);
}

TEST(PhysBusTest, OverlapRejected)
{
    PhysMem a("a", 1 * MiB), b("b", 1 * MiB);
    PhysicalBus bus;
    ASSERT_TRUE(bus.attach(AddrRange(0, 1 * MiB), &a).isOk());
    EXPECT_EQ(bus.attach(AddrRange(0x80000, 1 * MiB), &b).code(),
              StatusCode::AlreadyExists);
}

TEST(PhysBusTest, UnmappedAccessFails)
{
    PhysicalBus bus;
    Bytes buf(4);
    EXPECT_EQ(bus.read(0x1234, buf.data(), 4).code(),
              StatusCode::NotFound);
}

TEST(PhysBusTest, StraddlingAccessRejected)
{
    PhysMem a("a", 64 * KiB), b("b", 64 * KiB);
    PhysicalBus bus;
    ASSERT_TRUE(bus.attach(AddrRange(0, 64 * KiB), &a).isOk());
    ASSERT_TRUE(bus.attach(AddrRange(64 * KiB, 64 * KiB), &b).isOk());
    Bytes buf(8);
    EXPECT_FALSE(bus.read(64 * KiB - 4, buf.data(), 8).isOk());
}

TEST(PhysBusTest, DetachRestoresUnmapped)
{
    PhysMem a("a", 64 * KiB);
    PhysicalBus bus;
    AddrRange r(0x1000, 64 * KiB);
    ASSERT_TRUE(bus.attach(r, &a).isOk());
    ASSERT_TRUE(bus.detach(r).isOk());
    Bytes buf(4);
    EXPECT_FALSE(bus.read(0x1000, buf.data(), 4).isOk());
    EXPECT_EQ(bus.detach(r).code(), StatusCode::NotFound);
}

}  // namespace
}  // namespace hix::mem
