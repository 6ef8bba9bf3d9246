/**
 * @file
 * Tests for page tables, TLB behaviour, and the validating walker —
 * including the attack primitive (PTE overwrite) that HIX's
 * validators must catch.
 */

#include <gtest/gtest.h>

#include "common/units.h"
#include "mem/iommu.h"
#include "mem/mmu.h"
#include "mem/phys_mem.h"
#include "oracles/mem_oracles.h"

namespace hix::mem
{
namespace
{

class MmuTest : public ::testing::Test
{
  protected:
    MmuTest() : ram_("ram", 16 * MiB), mmu_(&bus_, 8)
    {
        EXPECT_TRUE(bus_.attach(AddrRange(0, 16 * MiB), &ram_).isOk());
        mmu_.setPageTableProvider(
            [this](ProcessId pid) -> PageTable * {
                auto it = tables_.find(pid);
                return it == tables_.end() ? nullptr : &it->second;
            });
    }

    PageTable &table(ProcessId pid) { return tables_[pid]; }

    /**
     * Run @p check on an Mmu and on the ReferenceMmu oracle, both
     * with @p capacity entries in @p ways ways over this fixture's
     * page tables: the engines share one replacement policy.
     */
    template <typename Check>
    void
    onBothEngines(std::size_t capacity, std::size_t ways, Check check)
    {
        auto provider = [this](ProcessId pid) -> PageTable * {
            auto it = tables_.find(pid);
            return it == tables_.end() ? nullptr : &it->second;
        };
        Mmu mmu(&bus_, capacity, ways);
        mmu.setPageTableProvider(provider);
        check(mmu);
        ReferenceMmu ref(&bus_, capacity, ways);
        ref.setPageTableProvider(provider);
        check(ref);
    }

    PhysicalBus bus_;
    PhysMem ram_;
    Mmu mmu_;
    std::unordered_map<ProcessId, PageTable> tables_;
};

TEST_F(MmuTest, TranslateMappedPage)
{
    ASSERT_TRUE(
        table(1).map(0x400000, 0x10000, PermRead | PermWrite).isOk());
    ExecContext ctx{1, InvalidEnclaveId};
    auto pa = mmu_.translate(ctx, 0x400123, AccessType::Read);
    ASSERT_TRUE(pa.isOk());
    EXPECT_EQ(*pa, 0x10123u);
}

TEST_F(MmuTest, UnmappedPageFaults)
{
    ExecContext ctx{1, InvalidEnclaveId};
    auto pa = mmu_.translate(ctx, 0x400000, AccessType::Read);
    EXPECT_FALSE(pa.isOk());
}

TEST_F(MmuTest, PermissionEnforced)
{
    ASSERT_TRUE(table(1).map(0x400000, 0x10000, PermRead).isOk());
    ExecContext ctx{1, InvalidEnclaveId};
    EXPECT_TRUE(mmu_.translate(ctx, 0x400000, AccessType::Read).isOk());
    auto w = mmu_.translate(ctx, 0x400000, AccessType::Write);
    EXPECT_EQ(w.status().code(), StatusCode::AccessFault);
}

TEST_F(MmuTest, TlbHitAfterFill)
{
    ASSERT_TRUE(table(1).map(0x400000, 0x10000, PermRead).isOk());
    ExecContext ctx{1, InvalidEnclaveId};
    ASSERT_TRUE(mmu_.translate(ctx, 0x400000, AccessType::Read).isOk());
    EXPECT_EQ(mmu_.tlb().misses(), 1u);
    ASSERT_TRUE(mmu_.translate(ctx, 0x400800, AccessType::Read).isOk());
    EXPECT_EQ(mmu_.tlb().hits(), 1u);
}

TEST_F(MmuTest, CachedTranslationSurvivesPteOverwrite)
{
    // Models real TLB semantics: changing the PTE does not change
    // already-cached translations until a flush.
    ASSERT_TRUE(table(1).map(0x400000, 0x10000, PermRead).isOk());
    ExecContext ctx{1, InvalidEnclaveId};
    ASSERT_TRUE(mmu_.translate(ctx, 0x400000, AccessType::Read).isOk());

    table(1).overwrite(0x400000, 0x20000, PermRead);
    auto pa = mmu_.translate(ctx, 0x400000, AccessType::Read);
    ASSERT_TRUE(pa.isOk());
    EXPECT_EQ(*pa, 0x10000u);

    mmu_.tlb().flushPage(1, 0x400000);
    pa = mmu_.translate(ctx, 0x400000, AccessType::Read);
    ASSERT_TRUE(pa.isOk());
    EXPECT_EQ(*pa, 0x20000u);
}

TEST_F(MmuTest, SeparateProcessesDoNotShareTlbEntries)
{
    ASSERT_TRUE(table(1).map(0x400000, 0x10000, PermRead).isOk());
    ASSERT_TRUE(table(2).map(0x400000, 0x20000, PermRead).isOk());
    auto pa1 = mmu_.translate({1, InvalidEnclaveId}, 0x400000,
                              AccessType::Read);
    auto pa2 = mmu_.translate({2, InvalidEnclaveId}, 0x400000,
                              AccessType::Read);
    ASSERT_TRUE(pa1.isOk());
    ASSERT_TRUE(pa2.isOk());
    EXPECT_EQ(*pa1, 0x10000u);
    EXPECT_EQ(*pa2, 0x20000u);
}

TEST_F(MmuTest, EnclaveModeTagsTlbSeparately)
{
    ASSERT_TRUE(table(1).map(0x400000, 0x10000, PermRead).isOk());
    ExecContext outside{1, InvalidEnclaveId};
    ExecContext inside{1, 55};
    ASSERT_TRUE(
        mmu_.translate(outside, 0x400000, AccessType::Read).isOk());
    // Different enclave tag misses and refills.
    ASSERT_TRUE(
        mmu_.translate(inside, 0x400000, AccessType::Read).isOk());
    EXPECT_EQ(mmu_.tlb().misses(), 2u);
}

class DenyValidator : public TlbFillValidator
{
  public:
    explicit DenyValidator(Addr deny_ppage) : deny_(deny_ppage) {}

    Status
    validateFill(const ExecContext &, Addr, Addr ppage,
                 std::uint8_t) override
    {
        if (ppage == deny_)
            return errAccessFault("validator denied fill");
        ++allowed;
        return Status::ok();
    }

    int allowed = 0;

  private:
    Addr deny_;
};

TEST_F(MmuTest, ValidatorCanDenyFill)
{
    DenyValidator validator(0x20000);
    mmu_.addValidator(&validator);
    ASSERT_TRUE(table(1).map(0x400000, 0x10000, PermRead).isOk());
    ASSERT_TRUE(table(1).map(0x401000, 0x20000, PermRead).isOk());

    ExecContext ctx{1, InvalidEnclaveId};
    EXPECT_TRUE(mmu_.translate(ctx, 0x400000, AccessType::Read).isOk());
    auto denied = mmu_.translate(ctx, 0x401000, AccessType::Read);
    EXPECT_EQ(denied.status().code(), StatusCode::AccessFault);
    EXPECT_EQ(validator.allowed, 1);
    // A denied fill must not be cached.
    EXPECT_EQ(mmu_.tlb().size(), 1u);
}

TEST_F(MmuTest, ReadWriteThroughVirtualAddresses)
{
    ASSERT_TRUE(table(1)
                    .mapRange(0x400000, 0x10000, 2 * PageSize,
                              PermRead | PermWrite)
                    .isOk());
    ExecContext ctx{1, InvalidEnclaveId};
    Bytes data(PageSize + 10, 0x3c);
    ASSERT_TRUE(
        mmu_.write(ctx, 0x400ff0, data.data(), data.size()).isOk());
    Bytes back(data.size());
    ASSERT_TRUE(
        mmu_.read(ctx, 0x400ff0, back.data(), back.size()).isOk());
    EXPECT_EQ(back, data);
}

TEST_F(MmuTest, TlbStaysAtCapacityUnderPressure)
{
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(table(1)
                        .map(0x400000 + i * PageSize,
                             0x10000 + i * PageSize, PermRead)
                        .isOk());
    }
    ExecContext ctx{1, InvalidEnclaveId};
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(mmu_.translate(ctx, 0x400000 + i * PageSize,
                                   AccessType::Read)
                        .isOk());
    }
    // Capacity is 8; two entries were evicted somewhere.
    EXPECT_EQ(mmu_.tlb().size(), 8u);
    EXPECT_EQ(mmu_.tlb().misses(), 10u);
}

TEST_F(MmuTest, TlbEvictsLeastRecentlyUsedWhenFull)
{
    // Fully associative (ways = capacity) so the victim is the
    // globally least-recently-used entry, independent of the hash.
    // Both engines must agree (they share the replacement policy).
    for (int i = 0; i < 9; ++i) {
        ASSERT_TRUE(table(1)
                        .map(0x400000 + i * PageSize,
                             0x10000 + i * PageSize, PermRead)
                        .isOk());
    }
    onBothEngines(8, /*ways=*/8, [](auto &mmu) {
        ExecContext ctx{1, InvalidEnclaveId};
        for (int i = 0; i < 8; ++i) {
            ASSERT_TRUE(mmu.translate(ctx, 0x400000 + i * PageSize,
                                      AccessType::Read)
                            .isOk());
        }
        EXPECT_EQ(mmu.tlbMisses(), 8u);
        // Touch page 0: it becomes most-recent, page 1 is now LRU.
        ASSERT_TRUE(
            mmu.translate(ctx, 0x400000, AccessType::Read).isOk());
        EXPECT_EQ(mmu.tlbHits(), 1u);
        // Insert page 8 into the full TLB: evicts page 1, not page 0
        // (under FIFO the victim would have been page 0).
        ASSERT_TRUE(mmu.translate(ctx, 0x400000 + 8 * PageSize,
                                  AccessType::Read)
                        .isOk());
        EXPECT_EQ(mmu.tlb().size(), 8u);
        ASSERT_TRUE(
            mmu.translate(ctx, 0x400000, AccessType::Read).isOk());
        EXPECT_EQ(mmu.tlbHits(), 2u) << "page 0 was wrongly evicted";
        ASSERT_TRUE(
            mmu.translate(ctx, 0x401000, AccessType::Read).isOk());
        EXPECT_EQ(mmu.tlbMisses(), 10u) << "page 1 was not the victim";
    });
}

TEST_F(MmuTest, FlushPageIgnoresEnclaveTag)
{
    // Conservative-flush contract: one (pid, vpage) cached under three
    // different enclave tags; flushTlbPage drops all three.
    ASSERT_TRUE(table(1).map(0x400000, 0x10000, PermRead).isOk());
    onBothEngines(8, TlbGeometry::DefaultWays, [](auto &mmu) {
        for (EnclaveId e : {InvalidEnclaveId, EnclaveId(55),
                            EnclaveId(77)}) {
            ASSERT_TRUE(mmu.translate({1, e}, 0x400000,
                                      AccessType::Read)
                            .isOk());
        }
        EXPECT_EQ(mmu.tlb().size(), 3u);
        mmu.flushTlbPage(1, 0x400000);
        EXPECT_EQ(mmu.tlb().size(), 0u);
    });
}

TEST_F(MmuTest, FlushPidDropsAllEnclaveEntriesOfThatPid)
{
    // Conservative-flush contract: flushPid ignores the enclave tag
    // and leaves other processes' entries alone.
    ASSERT_TRUE(table(1).map(0x400000, 0x10000, PermRead).isOk());
    ASSERT_TRUE(table(1).map(0x401000, 0x11000, PermRead).isOk());
    ASSERT_TRUE(table(2).map(0x400000, 0x20000, PermRead).isOk());
    onBothEngines(8, TlbGeometry::DefaultWays, [](auto &mmu) {
        ASSERT_TRUE(mmu.translate({1, InvalidEnclaveId}, 0x400000,
                                  AccessType::Read)
                        .isOk());
        ASSERT_TRUE(
            mmu.translate({1, 55}, 0x401000, AccessType::Read).isOk());
        ASSERT_TRUE(mmu.translate({2, InvalidEnclaveId}, 0x400000,
                                  AccessType::Read)
                        .isOk());
        EXPECT_EQ(mmu.tlb().size(), 3u);
        mmu.flushTlbPid(1);
        EXPECT_EQ(mmu.tlb().size(), 1u);
        // pid 2's entry survived and still hits.
        ASSERT_TRUE(mmu.translate({2, InvalidEnclaveId}, 0x400000,
                                  AccessType::Read)
                        .isOk());
        EXPECT_EQ(mmu.tlbHits(), 1u);
    });
}

TEST_F(MmuTest, CapacityOneTlbDegeneratesGracefully)
{
    // 1 set x 1 way: every distinct key evicts the previous one.
    ASSERT_TRUE(table(1).map(0x400000, 0x10000, PermRead).isOk());
    ASSERT_TRUE(table(1).map(0x401000, 0x11000, PermRead).isOk());
    onBothEngines(1, TlbGeometry::DefaultWays, [](auto &mmu) {
        ExecContext ctx{1, InvalidEnclaveId};
        ASSERT_TRUE(
            mmu.translate(ctx, 0x400000, AccessType::Read).isOk());
        ASSERT_TRUE(
            mmu.translate(ctx, 0x400000, AccessType::Read).isOk());
        EXPECT_EQ(mmu.tlbHits(), 1u);
        ASSERT_TRUE(
            mmu.translate(ctx, 0x401000, AccessType::Read).isOk());
        EXPECT_EQ(mmu.tlb().size(), 1u);
        ASSERT_TRUE(
            mmu.translate(ctx, 0x400000, AccessType::Read).isOk());
        EXPECT_EQ(mmu.tlbMisses(), 3u);
        EXPECT_EQ(mmu.tlb().size(), 1u);
    });
}

TEST_F(MmuTest, AccessWrappingPast2To64Fails)
{
    // VA 0 and the top page both map: an 8 KiB access at the top
    // page used to translate VA 0 for its second page. The oracle
    // keeps the same rule.
    const Addr top_page = ~Addr(0) - (PageSize - 1);
    ASSERT_TRUE(table(1).map(0, 0x10000, PermRead | PermWrite).isOk());
    ASSERT_TRUE(
        table(1).map(top_page, 0x20000, PermRead | PermWrite).isOk());
    onBothEngines(8, TlbGeometry::DefaultWays, [this,
                                                top_page](auto &mmu) {
        ASSERT_TRUE(ram_.zeroAt(0, 1 * MiB).isOk());
        ExecContext ctx{1, InvalidEnclaveId};
        Bytes data(2 * PageSize, 0x5a);
        EXPECT_EQ(
            mmu.write(ctx, top_page, data.data(), data.size()).code(),
            StatusCode::InvalidArgument);
        Bytes back(2 * PageSize, 0xee);
        EXPECT_EQ(
            mmu.read(ctx, top_page, back.data(), back.size()).code(),
            StatusCode::InvalidArgument);
        EXPECT_EQ(back, Bytes(back.size(), 0xee))
            << "the read moved bytes";
        EXPECT_EQ(mmu.tlbMisses(), 0u) << "a wrapping access translated";
        for (Addr pa : {Addr(0x10000), Addr(0x20000)}) {
            Bytes page(PageSize, 0xee);
            ASSERT_TRUE(ram_.readAt(pa, page.data(), page.size()).isOk());
            EXPECT_EQ(page, Bytes(PageSize, 0)) << "RAM at " << pa;
        }

        // An access that ends exactly at 2^64 is legal.
        EXPECT_TRUE(
            mmu.write(ctx, top_page, data.data(), PageSize).isOk());
        EXPECT_TRUE(mmu.read(ctx, ~Addr(0), back.data(), 1).isOk());
        EXPECT_EQ(back[0], 0x5a);
    });
}

TEST(IommuTest, BypassWhenDisabled)
{
    Iommu iommu;
    auto pa = iommu.translate(0x12345);
    ASSERT_TRUE(pa.isOk());
    EXPECT_EQ(*pa, 0x12345u);
}

TEST(IommuTest, TranslatesWhenEnabled)
{
    Iommu iommu;
    iommu.setEnabled(true);
    ASSERT_TRUE(iommu.map(0x1000, 0x80000).isOk());
    auto pa = iommu.translate(0x1234);
    ASSERT_TRUE(pa.isOk());
    EXPECT_EQ(*pa, 0x80234u);
    EXPECT_EQ(iommu.translate(0x2000).status().code(),
              StatusCode::AccessFault);
}

TEST(IommuTest, OverwriteRedirects)
{
    Iommu iommu;
    iommu.setEnabled(true);
    ASSERT_TRUE(iommu.map(0x1000, 0x80000).isOk());
    iommu.overwrite(0x1000, 0x90000);
    auto pa = iommu.translate(0x1000);
    ASSERT_TRUE(pa.isOk());
    EXPECT_EQ(*pa, 0x90000u);
}

}  // namespace
}  // namespace hix::mem
