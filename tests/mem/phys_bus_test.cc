/**
 * @file
 * PhysicalBus routing and straddle/hole regressions: clean Status
 * errors with zero target calls on a straddling access (including the
 * length-overflow case the old end-containment check wrapped on), no
 * partial writes from single accesses, the documented mid-run partial
 * semantics of the page-chunked bulk helpers, and MRU route-cache
 * invalidation across attach/detach.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/units.h"
#include "mem/page.h"
#include "mem/phys_bus.h"
#include "mem/phys_mem.h"
#include "oracles/mem_oracles.h"

namespace hix::mem
{
namespace
{

/** Counts every access so tests can assert "zero target calls". */
class RecordingTarget : public BusTarget
{
  public:
    explicit RecordingTarget(std::uint64_t size) : size_(size) {}

    std::string targetName() const override { return "recording"; }

    Status
    readAt(std::uint64_t offset, std::uint8_t *data,
           std::size_t len) override
    {
        ++reads;
        if (len > size_ || offset > size_ - len)
            return errInvalidArgument("recording: out of bounds");
        std::fill(data, data + len, fill);
        return Status::ok();
    }

    Status
    writeAt(std::uint64_t offset, const std::uint8_t *,
            std::size_t len) override
    {
        ++writes;
        if (len > size_ || offset > size_ - len)
            return errInvalidArgument("recording: out of bounds");
        bytes_written += len;
        return Status::ok();
    }

    int reads = 0;
    int writes = 0;
    std::uint64_t bytes_written = 0;
    std::uint8_t fill = 0xA5;

  private:
    std::uint64_t size_;
};

TEST(PhysBusTest, StraddleIsCleanErrorWithZeroTargetCalls)
{
    PhysicalBus bus;
    RecordingTarget a(0x1000);
    RecordingTarget b(0x1000);
    ASSERT_TRUE(bus.attach(AddrRange(0x0, 0x1000), &a).isOk());
    ASSERT_TRUE(bus.attach(AddrRange(0x1000, 0x1000), &b).isOk());

    // Crossing from a into b: adjacent targets, so every byte is
    // mapped, but a single access still must not straddle.
    std::uint8_t buf[64] = {};
    Status rd = bus.read(0xff0, buf, sizeof(buf));
    EXPECT_EQ(rd.code(), StatusCode::InvalidArgument);
    Status wr = bus.write(0xff0, buf, sizeof(buf));
    EXPECT_EQ(wr.code(), StatusCode::InvalidArgument);
    // Neither side was touched: no partial transfer happened.
    EXPECT_EQ(a.reads + a.writes, 0);
    EXPECT_EQ(b.reads + b.writes, 0);
    EXPECT_EQ(a.bytes_written + b.bytes_written, 0u);
}

TEST(PhysBusTest, StraddleLengthOverflowRegression)
{
    // Regression: with a mapping near the top of the address space,
    // the old check `!range.contains(addr + len - 1)` wrapped for a
    // huge len — addr + len - 1 overflowed back *into* the range —
    // and forwarded the bogus length to the target. The overflow-safe
    // check must reject it before any target call.
    PhysicalBus bus;
    RecordingTarget t(0x1000);
    const Addr base = 0xFFFFFFFFFFFFE000ull;
    ASSERT_TRUE(bus.attach(AddrRange(base, 0x1000), &t).isOk());

    const Addr addr = base + 0x100;
    // Wraps to addr + len - 1 == base + 0xF: inside the range.
    const std::size_t len = static_cast<std::size_t>(0ull - 0xF0ull);
    std::uint8_t byte = 0;
    Status rd = bus.read(addr, &byte, len);
    EXPECT_EQ(rd.code(), StatusCode::InvalidArgument);
    Status wr = bus.write(addr, &byte, len);
    EXPECT_EQ(wr.code(), StatusCode::InvalidArgument);
    EXPECT_EQ(t.reads + t.writes, 0);
}

TEST(PhysBusTest, HoleReadIsNotFound)
{
    PhysicalBus bus;
    RecordingTarget t(0x1000);
    ASSERT_TRUE(bus.attach(AddrRange(0x0, 0x1000), &t).isOk());
    std::uint8_t byte = 0;
    EXPECT_EQ(bus.read(0x2000, &byte, 1).code(), StatusCode::NotFound);
    EXPECT_EQ(bus.write(0x2000, &byte, 1).code(), StatusCode::NotFound);
    // Reading up to the hole edge from inside the range straddles.
    EXPECT_EQ(bus.read(0xff0, &byte, 1).code(), StatusCode::Ok);
    std::uint8_t buf[32];
    EXPECT_EQ(bus.read(0xff0, buf, 32).code(),
              StatusCode::InvalidArgument);
}

TEST(PhysBusTest, BulkCrossesTargetsAtPageBoundaries)
{
    // readPages/writePages re-route per page, so a page-aligned
    // boundary between two targets is legal for the bulk helpers
    // even though a single read() across it is a straddle.
    PhysicalBus bus;
    PhysMem a("a", PageSize);
    PhysMem b("b", PageSize);
    ASSERT_TRUE(bus.attach(AddrRange(0, PageSize), &a).isOk());
    ASSERT_TRUE(bus.attach(AddrRange(PageSize, PageSize), &b).isOk());

    std::vector<std::uint8_t> out(2 * PageSize, 0x11);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::uint8_t>(i * 13);
    ASSERT_TRUE(bus.writePages(0x800, out.data(), PageSize).isOk());
    std::vector<std::uint8_t> back(PageSize);
    ASSERT_TRUE(bus.readPages(0x800, back.data(), PageSize).isOk());
    EXPECT_TRUE(std::equal(back.begin(), back.end(), out.begin()));

    std::uint8_t byte = 0;
    EXPECT_EQ(bus.read(0x800, &byte, PageSize).code(),
              StatusCode::InvalidArgument);
}

TEST(PhysBusTest, BulkHoleMidRunKeepsPartialSemantics)
{
    // A hole after the first page: writePages commits the pages before
    // the hole and then faults — exactly what the per-page loop it
    // replaced did. The page before the hole must have been written.
    PhysicalBus bus;
    PhysMem a("a", PageSize);
    RecordingTarget after(PageSize);
    ASSERT_TRUE(bus.attach(AddrRange(0, PageSize), &a).isOk());
    ASSERT_TRUE(
        bus.attach(AddrRange(2 * PageSize, PageSize), &after).isOk());

    std::vector<std::uint8_t> data(2 * PageSize, 0x7e);
    Status st = bus.writePages(0x0, data.data(), data.size());
    EXPECT_EQ(st.code(), StatusCode::NotFound);
    std::uint8_t back = 0;
    ASSERT_TRUE(bus.read(PageSize - 1, &back, 1).isOk());
    EXPECT_EQ(back, 0x7e);
    // The target past the hole was never reached.
    EXPECT_EQ(after.writes, 0);

    std::vector<std::uint8_t> rd(2 * PageSize);
    EXPECT_EQ(bus.readPages(0x0, rd.data(), rd.size()).code(),
              StatusCode::NotFound);
}

TEST(PhysBusTest, RouteCacheSurvivesAttachDetach)
{
    PhysicalBus bus;
    RecordingTarget a(0x1000);
    RecordingTarget b(0x1000);
    RecordingTarget c(0x1000);
    ASSERT_TRUE(bus.attach(AddrRange(0x0, 0x1000), &a).isOk());
    ASSERT_TRUE(bus.attach(AddrRange(0x4000, 0x1000), &b).isOk());

    // Warm the MRU cache on b, then attach a mapping that sorts
    // before it: the cached index would now point at the wrong slot.
    EXPECT_EQ(bus.route(0x4800)->target, &b);
    ASSERT_TRUE(bus.attach(AddrRange(0x2000, 0x1000), &c).isOk());
    EXPECT_EQ(bus.route(0x4800)->target, &b);
    EXPECT_EQ(bus.route(0x2080)->target, &c);

    // Detach the cached mapping: the cache must not resurrect it.
    EXPECT_EQ(bus.route(0x2080)->target, &c);
    ASSERT_TRUE(bus.detach(AddrRange(0x2000, 0x1000)).isOk());
    EXPECT_EQ(bus.route(0x2080), nullptr);

    // route agrees with a linear scan of what is still attached,
    // across the whole map.
    const std::vector<PhysicalBus::Mapping> attached = {
        {AddrRange(0x0, 0x1000), &a}, {AddrRange(0x4000, 0x1000), &b}};
    for (Addr addr : {Addr(0x0), Addr(0xfff), Addr(0x1000),
                      Addr(0x2080), Addr(0x3fff), Addr(0x4000),
                      Addr(0x4fff), Addr(0x5000), Addr(~0ull)}) {
        const auto *fast = bus.route(addr);
        const auto *ref = linearRoute(attached, addr);
        ASSERT_EQ(fast == nullptr, ref == nullptr) << addr;
        if (fast) {
            EXPECT_EQ(fast->target, ref->target);
            EXPECT_TRUE(fast->range == ref->range);
        }
    }
}

}  // namespace
}  // namespace hix::mem
