/**
 * @file
 * Golden-equivalence wall for the memory-system fast path. Each suite
 * drives the production engine and its linear reference oracle with
 * one deterministic op stream and requires bit-identical observable
 * behaviour:
 *
 *  - MemGoldenTlb: the set-associative Tlb vs the TlbReference list,
 *    at several geometries (including fully-associative and 1x1).
 *  - MemGoldenMmu: mirrored bus+RAM+page-table machines, bulk
 *    coalesced read/write vs the per-page reference loop — bytes,
 *    Status codes, and hit/miss counters, including mid-span
 *    translate faults.
 *  - MemGoldenBus: binary-search + MRU-cache routing vs the linear
 *    scan under attach/detach churn.
 *  - MemGoldenIotlb: IOTLB coherence against the OS-owned table
 *    (unmap/overwrite flush the page before taking effect), counters,
 *    and O(1) flush. The IOTLB is a Tlb, so MemGoldenTlb pins its
 *    replacement policy.
 *  - MemGoldenPhysMem: PhysMem writes, reads, views, scrubs and
 *    recycled regions against a dense byte-vector oracle.
 *  - MemGoldenRegionPool: threads acquiring and releasing PhysMem
 *    regions through the process-wide free list concurrently.
 *  - MemGoldenPageWalk: root-complex DMA through the IOMMU and the
 *    GPU context accessor, whose bulk copies share the MMU's
 *    translate-and-coalesce loop, against per-page loops — bytes,
 *    Status codes, the prefix before a mid-run fault and IOTLB
 *    counters.
 *
 * CI gates on this suite (ctest -R MemGolden); the sanitize and tsan
 * jobs run it under ASan/UBSan and TSan.
 */

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/units.h"
#include "gpu/gpu_context.h"
#include "mem/iommu.h"
#include "mem/mmu.h"
#include "mem/phys_bus.h"
#include "mem/phys_mem.h"
#include "pcie/root_complex.h"

namespace hix::mem
{
namespace
{

/** SplitMix64: tiny, deterministic, no global RNG state. */
struct Rng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }
};

// ----- MemGoldenTlb ----------------------------------------------------

void
driveTlbPair(TlbBase &fast, TlbBase &ref, std::uint64_t seed,
             int iterations)
{
    Rng rng{seed};
    for (int i = 0; i < iterations; ++i) {
        const std::uint64_t r = rng.next();
        const ProcessId pid = 1 + r % 3;
        const EnclaveId enclave =
            (r >> 8) % 3 == 0 ? InvalidEnclaveId
                              : EnclaveId(40 + (r >> 8) % 3);
        const Addr vpage = ((r >> 16) % 24) * PageSize;
        switch ((r >> 40) % 8) {
          case 0:
          case 1:
          case 2: {  // insert
            TlbEntry e{pid, enclave, vpage,
                       ((r >> 24) % 64) * PageSize, PermRead};
            fast.insert(e);
            ref.insert(e);
            break;
          }
          case 6:
            switch ((r >> 44) % 8) {
              case 0:
                fast.flushAll();
                ref.flushAll();
                break;
              case 1:
                fast.flushPid(pid);
                ref.flushPid(pid);
                break;
              default:
                fast.flushPage(pid, vpage);
                ref.flushPage(pid, vpage);
                break;
            }
            break;
          default: {  // lookup (also refreshes LRU recency)
            const TlbEntry *a = fast.lookup(pid, enclave, vpage);
            const TlbEntry *b = ref.lookup(pid, enclave, vpage);
            ASSERT_EQ(a == nullptr, b == nullptr)
                << "presence diverged at op " << i;
            if (a) {
                EXPECT_EQ(a->ppage, b->ppage) << "at op " << i;
                EXPECT_EQ(a->perms, b->perms) << "at op " << i;
            }
            break;
          }
        }
        ASSERT_EQ(fast.size(), ref.size()) << "size diverged at op " << i;
    }
}

TEST(MemGoldenTlb, EnginesAgreeAcrossGeometries)
{
    struct Shape
    {
        std::size_t capacity;
        std::size_t ways;
    };
    for (Shape s : {Shape{8, 4}, Shape{16, 2}, Shape{8, 8},
                    Shape{1, 1}, Shape{6, 4}}) {
        Tlb fast(s.capacity, s.ways);
        TlbReference ref(s.capacity, s.ways);
        ASSERT_EQ(fast.geometry().sets, ref.geometry().sets);
        ASSERT_EQ(fast.geometry().ways, ref.geometry().ways);
        driveTlbPair(fast, ref, 0x600D + s.capacity * 31 + s.ways,
                     4000);
    }
}

TEST(MemGoldenTlb, EpochFlushIsObservationallyComplete)
{
    // flushAll is an O(1) epoch bump; nothing stale may survive it,
    // across repeated flush/refill cycles (epoch reuse of slots).
    Tlb fast(8);
    TlbReference ref(8);
    for (int cycle = 0; cycle < 50; ++cycle) {
        driveTlbPair(fast, ref, 0xF1u * (cycle + 1), 200);
        fast.flushAll();
        ref.flushAll();
        ASSERT_EQ(fast.size(), 0u);
        ASSERT_EQ(ref.size(), 0u);
        for (Addr vpage = 0; vpage < 24 * PageSize; vpage += PageSize)
            for (ProcessId pid : {ProcessId(1), ProcessId(2),
                                  ProcessId(3)})
                ASSERT_EQ(fast.lookup(pid, InvalidEnclaveId, vpage),
                          nullptr);
    }
}

// ----- MemGoldenMmu ----------------------------------------------------

constexpr std::uint64_t GoldenRamSize = 1 * MiB;

/** One mirrored half: bus + RAM + per-pid page tables + MMU. */
struct Half
{
    explicit Half(TlbEngine engine)
        : ram("golden_ram", GoldenRamSize), mmu(&bus, 16, engine)
    {
        EXPECT_TRUE(
            bus.attach(AddrRange(0, GoldenRamSize), &ram).isOk());
        mmu.setPageTableProvider(
            [this](ProcessId pid) { return &tables[pid]; });
    }

    PhysicalBus bus;
    PhysMem ram;
    Mmu mmu;
    std::unordered_map<ProcessId, PageTable> tables;
};

class MemGoldenMmu : public ::testing::Test
{
  protected:
    MemGoldenMmu() : fast_(TlbEngine::Fast), ref_(TlbEngine::Reference)
    {}

    void
    mapBoth(ProcessId pid, Addr va, Addr pa, std::uint8_t perms)
    {
        ASSERT_TRUE(fast_.tables[pid].map(va, pa, perms).isOk());
        ASSERT_TRUE(ref_.tables[pid].map(va, pa, perms).isOk());
    }

    void
    expectCountersEqual(const char *where)
    {
        EXPECT_EQ(fast_.mmu.tlbHits(), ref_.mmu.tlbHits()) << where;
        EXPECT_EQ(fast_.mmu.tlbMisses(), ref_.mmu.tlbMisses()) << where;
        EXPECT_EQ(fast_.mmu.tlb().size(), ref_.mmu.tlb().size())
            << where;
    }

    Half fast_;
    Half ref_;
};

TEST_F(MemGoldenMmu, RandomizedBulkOpsMatchReferenceExactly)
{
    // Sparse VA layout with holes and varied physical placement:
    // contiguous runs, reversed pages, strided pages. Bulk spans
    // regularly cross holes mid-run, exercising the partial-fault
    // path.
    for (int i = 0; i < 48; ++i) {
        if (i % 5 == 4)
            continue;  // hole every fifth page
        const Addr va = 0x400000 + Addr(i) * PageSize;
        const Addr pa = (i % 3 == 0)
                            ? Addr(i) * PageSize
                            : (64 + (i * 7) % 128) * PageSize;
        mapBoth(1, va, pa, PermRead | PermWrite);
    }
    // A second process, partially read-only.
    for (int i = 0; i < 8; ++i)
        mapBoth(2, 0x400000 + Addr(i) * PageSize,
                (200 + i) * PageSize,
                i < 4 ? (PermRead | PermWrite) : PermRead);

    Rng rng{0x90140};
    std::vector<std::uint8_t> buf_fast(4 * PageSize);
    std::vector<std::uint8_t> buf_ref(4 * PageSize);
    for (int op = 0; op < 3000; ++op) {
        const std::uint64_t r = rng.next();
        const ExecContext ctx{static_cast<ProcessId>(1 + r % 2),
                              InvalidEnclaveId};
        const Addr addr = 0x400000 + ((r >> 8) % 50) * PageSize +
                          (r >> 16) % PageSize;
        const std::size_t len =
            1 + (r >> 32) % (3 * PageSize + PageSize / 2);
        if ((r >> 4) % 2 == 0) {
            std::fill(buf_fast.begin(), buf_fast.end(), 0xCC);
            std::fill(buf_ref.begin(), buf_ref.end(), 0xCC);
            Status a = fast_.mmu.read(ctx, addr, buf_fast.data(), len);
            Status b =
                ref_.mmu.readReference(ctx, addr, buf_ref.data(), len);
            ASSERT_EQ(a.code(), b.code()) << "read op " << op;
            ASSERT_EQ(buf_fast, buf_ref) << "read bytes op " << op;
        } else {
            for (std::size_t j = 0; j < len; ++j)
                buf_fast[j] =
                    static_cast<std::uint8_t>(r >> (j % 56));
            Status a = fast_.mmu.write(ctx, addr, buf_fast.data(), len);
            Status b = ref_.mmu.writeReference(ctx, addr,
                                               buf_fast.data(), len);
            ASSERT_EQ(a.code(), b.code()) << "write op " << op;
        }
        if (op % 97 == 0) {
            fast_.mmu.flushTlbPid(ctx.pid);
            ref_.mmu.flushTlbPid(ctx.pid);
        }
        expectCountersEqual("mid-stream");
        if (HasFatalFailure() || HasNonfatalFailure())
            FAIL() << "diverged at op " << op;
    }
    // Both RAMs hold identical contents after the full stream.
    std::vector<std::uint8_t> a(GoldenRamSize);
    std::vector<std::uint8_t> b(GoldenRamSize);
    ASSERT_TRUE(fast_.ram.readAt(0, a.data(), a.size()).isOk());
    ASSERT_TRUE(ref_.ram.readAt(0, b.data(), b.size()).isOk());
    EXPECT_TRUE(a == b) << "RAM images diverged";
}

TEST_F(MemGoldenMmu, MidSpanFaultDeliversIdenticalPrefix)
{
    // Pages 0 and 1 mapped, page 2 is a hole: a 3-page read faults on
    // the hole but must have delivered the first two pages — in both
    // engines, with identical counters.
    mapBoth(1, 0x400000, 0x10000, PermRead | PermWrite);
    mapBoth(1, 0x401000, 0x30000, PermRead | PermWrite);
    ExecContext ctx{1, InvalidEnclaveId};

    std::vector<std::uint8_t> seed(2 * PageSize);
    for (std::size_t i = 0; i < seed.size(); ++i)
        seed[i] = static_cast<std::uint8_t>(i * 31 + 7);
    ASSERT_TRUE(
        fast_.mmu.write(ctx, 0x400000, seed.data(), seed.size()).isOk());
    ASSERT_TRUE(ref_.mmu
                    .writeReference(ctx, 0x400000, seed.data(),
                                    seed.size())
                    .isOk());

    std::vector<std::uint8_t> got_fast(3 * PageSize, 0xEE);
    std::vector<std::uint8_t> got_ref(3 * PageSize, 0xEE);
    Status a =
        fast_.mmu.read(ctx, 0x400000, got_fast.data(), got_fast.size());
    Status b = ref_.mmu.readReference(ctx, 0x400000, got_ref.data(),
                                      got_ref.size());
    EXPECT_EQ(a.code(), StatusCode::NotFound);
    EXPECT_EQ(a.code(), b.code());
    EXPECT_EQ(got_fast, got_ref);
    EXPECT_TRUE(std::equal(seed.begin(), seed.end(), got_fast.begin()));
    expectCountersEqual("after mid-span fault");
}

TEST_F(MemGoldenMmu, ValidatorDenialCountsIdentically)
{
    class DenyOdd : public TlbFillValidator
    {
      public:
        Status
        validateFill(const ExecContext &, Addr, Addr ppage,
                     std::uint8_t) override
        {
            if ((ppage / PageSize) % 2 == 1)
                return errAccessFault("validator denied fill");
            return Status::ok();
        }
    };
    DenyOdd deny_fast, deny_ref;
    fast_.mmu.addValidator(&deny_fast);
    ref_.mmu.addValidator(&deny_ref);
    mapBoth(1, 0x400000, 2 * PageSize, PermRead | PermWrite);
    mapBoth(1, 0x401000, 3 * PageSize, PermRead | PermWrite);  // denied
    ExecContext ctx{1, InvalidEnclaveId};

    std::vector<std::uint8_t> buf_fast(2 * PageSize, 0x5A);
    std::vector<std::uint8_t> buf_ref(2 * PageSize, 0x5A);
    Status a =
        fast_.mmu.read(ctx, 0x400000, buf_fast.data(), buf_fast.size());
    Status b = ref_.mmu.readReference(ctx, 0x400000, buf_ref.data(),
                                      buf_ref.size());
    EXPECT_EQ(a.code(), StatusCode::AccessFault);
    EXPECT_EQ(a.code(), b.code());
    EXPECT_EQ(buf_fast, buf_ref);
    // The denied fill was not cached by either engine.
    EXPECT_EQ(fast_.mmu.tlb().size(), 1u);
    expectCountersEqual("after denial");
}

// ----- MemGoldenBus ----------------------------------------------------

TEST(MemGoldenBus, RoutingMatchesReferenceUnderChurn)
{
    PhysicalBus bus;
    std::vector<std::unique_ptr<PhysMem>> mems;
    std::vector<AddrRange> attached;
    Rng rng{0xB05};

    auto check = [&](Addr addr) {
        const auto *fast = bus.route(addr);
        const auto *ref = bus.routeReference(addr);
        ASSERT_EQ(fast == nullptr, ref == nullptr)
            << "presence at " << addr;
        if (fast) {
            EXPECT_EQ(fast->target, ref->target);
            EXPECT_TRUE(fast->range == ref->range);
        }
    };

    for (int op = 0; op < 2000; ++op) {
        const std::uint64_t r = rng.next();
        switch (r % 3) {
          case 0: {  // attach a fresh page-aligned island
            const Addr base = ((r >> 8) % 512) * PageSize;
            const std::uint64_t size = (1 + (r >> 24) % 4) * PageSize;
            auto mem = std::make_unique<PhysMem>("island", size);
            if (bus.attach(AddrRange(base, size), mem.get()).isOk()) {
                mems.push_back(std::move(mem));
                attached.push_back(AddrRange(base, size));
            }
            break;
          }
          case 1: {  // detach one island
            if (!attached.empty()) {
                const std::size_t idx = (r >> 8) % attached.size();
                ASSERT_TRUE(bus.detach(attached[idx]).isOk());
                attached.erase(attached.begin() + idx);
            }
            break;
          }
          default:  // probe: random addrs, range edges, far misses
            check((r >> 8) % (600 * PageSize));
            if (!attached.empty()) {
                const AddrRange &range =
                    attached[(r >> 16) % attached.size()];
                check(range.start());
                check(range.end() - 1);
                check(range.end());
            }
            check(~0ull);
            break;
        }
        ASSERT_EQ(bus.mappingCount(), attached.size());
        if (::testing::Test::HasFatalFailure())
            FAIL() << "diverged at op " << op;
    }
}

// ----- MemGoldenIotlb --------------------------------------------------

TEST(MemGoldenIotlb, TranslateAlwaysMirrorsTheTable)
{
    // The IOTLB may never return anything the OS-owned table would
    // not: unmap and overwrite invalidate the cached page before they
    // take effect.
    Iommu iommu;
    iommu.setEnabled(true);
    ASSERT_TRUE(iommu.map(0x1000, 0x80000).isOk());

    auto pa = iommu.translate(0x1234);
    ASSERT_TRUE(pa.isOk());
    EXPECT_EQ(*pa, 0x80234u);
    EXPECT_EQ(iommu.iotlbMisses(), 1u);
    pa = iommu.translate(0x1008);
    ASSERT_TRUE(pa.isOk());
    EXPECT_EQ(iommu.iotlbHits(), 1u);

    // Redirect: the very next translate sees the new target.
    iommu.overwrite(0x1000, 0x90000);
    pa = iommu.translate(0x1004);
    ASSERT_TRUE(pa.isOk());
    EXPECT_EQ(*pa, 0x90004u);
    EXPECT_EQ(iommu.iotlbMisses(), 2u) << "stale entry served";

    // Unmap: cached page must not survive as a ghost mapping.
    ASSERT_TRUE(iommu.unmap(0x1000).isOk());
    EXPECT_EQ(iommu.translate(0x1000).status().code(),
              StatusCode::AccessFault);
    EXPECT_EQ(iommu.iotlbSize(), 0u);
}

TEST(MemGoldenIotlb, RandomizedShadowDifferential)
{
    Iommu iommu;
    iommu.setEnabled(true);
    std::unordered_map<Addr, Addr> shadow;
    Rng rng{0x10D1F};
    for (int op = 0; op < 5000; ++op) {
        const std::uint64_t r = rng.next();
        const Addr dpage = ((r >> 8) % 32) * PageSize;
        const Addr ppage = ((r >> 16) % 256) * PageSize;
        switch (r % 5) {
          case 0: {
            Status st = iommu.map(dpage, ppage);
            if (shadow.count(dpage))
                ASSERT_FALSE(st.isOk());
            else {
                ASSERT_TRUE(st.isOk());
                shadow[dpage] = ppage;
            }
            break;
          }
          case 1: {
            Status st = iommu.unmap(dpage);
            ASSERT_EQ(st.isOk(), shadow.erase(dpage) > 0);
            break;
          }
          case 2:
            iommu.overwrite(dpage, ppage);
            shadow[dpage] = ppage;
            break;
          case 3:
            iommu.flushIotlb();
            ASSERT_EQ(iommu.iotlbSize(), 0u);
            break;
          default: {
            const Addr off = (r >> 48) % PageSize;
            auto pa = iommu.translate(dpage + off);
            auto it = shadow.find(dpage);
            if (it == shadow.end()) {
                ASSERT_FALSE(pa.isOk()) << "ghost mapping at op " << op;
            } else {
                ASSERT_TRUE(pa.isOk()) << "lost mapping at op " << op;
                ASSERT_EQ(*pa, it->second + off) << "at op " << op;
            }
            break;
          }
        }
        ASSERT_EQ(iommu.entryCount(), shadow.size());
        ASSERT_LE(iommu.iotlbSize(),
                  std::min<std::size_t>(64, shadow.size()));
    }
    EXPECT_GT(iommu.iotlbHits(), 0u);
    EXPECT_GT(iommu.iotlbMisses(), 0u);
}

TEST(MemGoldenIotlb, CapacityBoundAndLruRefill)
{
    Iommu iommu(4);  // 1 set x 4 ways or 2x2 — capacity 4 either way
    iommu.setEnabled(true);
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(
            iommu.map(Addr(i) * PageSize, Addr(64 + i) * PageSize)
                .isOk());
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(iommu.translate(Addr(i) * PageSize).isOk());
    EXPECT_EQ(iommu.iotlbMisses(), 8u);
    EXPECT_LE(iommu.iotlbSize(), 4u);
    // Every translate still returns the right answer after eviction.
    for (int i = 0; i < 8; ++i) {
        auto pa = iommu.translate(Addr(i) * PageSize + 4);
        ASSERT_TRUE(pa.isOk());
        EXPECT_EQ(*pa, Addr(64 + i) * PageSize + 4);
    }
}

TEST(MemGoldenIotlb, DisabledModeBypassesAndDoesNotCount)
{
    Iommu iommu;
    ASSERT_TRUE(iommu.map(0x1000, 0x80000).isOk());
    auto pa = iommu.translate(0x1234);
    ASSERT_TRUE(pa.isOk());
    EXPECT_EQ(*pa, 0x1234u);  // identity, table ignored
    EXPECT_EQ(iommu.iotlbHits(), 0u);
    EXPECT_EQ(iommu.iotlbMisses(), 0u);
    EXPECT_EQ(iommu.iotlbSize(), 0u);
}

// ----- MemGoldenPhysMem -------------------------------------------------
//
// The sparse page store against a dense byte vector: a randomized op
// stream of writes, reads, view reads and writes, scrubs, and
// destroy-and-recreate on a recycled region (whose stale bytes must
// read as zero). Every read and view must see exactly the oracle's
// bytes.

namespace
{

constexpr std::uint64_t StreamPages = 32;
constexpr std::uint64_t StreamSize = StreamPages * PageSize;

void
expectMatchesOracle(PhysMem &mem, const std::vector<std::uint8_t> &oracle,
                    const char *where)
{
    std::vector<std::uint8_t> page(PageSize);
    for (std::uint64_t p = 0; p < StreamPages; ++p) {
        const std::uint64_t off = p * PageSize;
        ASSERT_TRUE(mem.readAt(off, page.data(), PageSize).isOk());
        ASSERT_EQ(0,
                  std::memcmp(page.data(), oracle.data() + off, PageSize))
            << where << ": memory diverged from oracle at page " << p;
    }
}

void
drivePhysMemStream(std::uint64_t seed, int iterations)
{
    Rng rng{seed};
    auto mem = std::make_unique<PhysMem>("mem0", StreamSize);
    std::vector<std::uint8_t> oracle(StreamSize, 0);
    std::vector<std::uint8_t> buf(2 * PageSize);
    int next_mem = 1;

    for (int i = 0; i < iterations; ++i) {
        const std::uint64_t r = rng.next();
        std::uint64_t off = (r >> 8) % StreamSize;
        std::uint64_t len = 1 + (r >> 32) % (2 * PageSize - 1);
        if ((r >> 52) & 1) {  // page-aligned, whole pages
            off &= ~(PageSize - 1);
            len = ((len / PageSize) + 1) * PageSize;
        }
        if (off + len > StreamSize)
            len = StreamSize - off;
        switch (r % 10) {
          case 0:
          case 1:
          case 2: {  // write
            for (std::uint64_t b = 0; b < len; ++b)
                buf[b] = static_cast<std::uint8_t>((r >> (b % 8)) ^
                                                   (off + b));
            ASSERT_TRUE(mem->writeAt(off, buf.data(), len).isOk());
            std::memcpy(oracle.data() + off, buf.data(), len);
            break;
          }
          case 3:
          case 4: {  // read + compare
            ASSERT_TRUE(mem->readAt(off, buf.data(), len).isOk());
            ASSERT_EQ(0,
                      std::memcmp(buf.data(), oracle.data() + off, len));
            break;
          }
          case 5: {  // scrub
            ASSERT_TRUE(mem->zeroAt(off, len).isOk());
            std::memset(oracle.data() + off, 0, len);
            break;
          }
          case 6: {  // read through a view
            const std::uint8_t *view = mem->view(off, len);
            ASSERT_NE(view, nullptr);
            ASSERT_EQ(0, std::memcmp(view, oracle.data() + off, len));
            break;
          }
          case 7:
          case 8: {  // write through a view
            std::uint8_t *view = mem->view(off, len);
            ASSERT_NE(view, nullptr);
            for (std::uint64_t b = 0; b < len; ++b)
                view[b] = static_cast<std::uint8_t>(view[b] * 3 + r);
            for (std::uint64_t b = 0; b < len; ++b)
                oracle[off + b] =
                    static_cast<std::uint8_t>(oracle[off + b] * 3 + r);
            break;
          }
          case 9: {  // destroy, recreate on the recycled region
            mem.reset();
            mem = std::make_unique<PhysMem>(
                "mem" + std::to_string(next_mem++), StreamSize);
            std::fill(oracle.begin(), oracle.end(), 0);
            break;
          }
        }
    }
    expectMatchesOracle(*mem, oracle, "final sweep");
}

}  // namespace

TEST(MemGoldenPhysMem, RandomizedStreamsMatchDenseOracle)
{
    for (std::uint64_t seed : {0xc0117ull, 0xfaceull, 0x5eedull})
        drivePhysMemStream(seed, 4000);
}

// ----- MemGoldenRegionPool -----------------------------------------------
//
// PhysMem regions are shared process state: a destroyed memory hands
// its region to a free list that any thread's next memory of the same
// size takes. Threads churn memories through that list; each must see
// only its own bytes and zeros, never another instance's.

TEST(MemGoldenRegionPool, ConcurrentAcquireReleaseStaysIsolated)
{
    constexpr std::uint64_t Pages = 16;
    constexpr std::uint64_t Size = Pages * PageSize;
    constexpr int Threads = 4;
    constexpr int Rounds = 200;
    std::vector<std::string> failures(Threads);
    std::vector<std::thread> workers;
    for (int t = 0; t < Threads; ++t) {
        workers.emplace_back([t, &failures] {
            Rng rng{0x9001ull + static_cast<std::uint64_t>(t)};
            std::vector<std::uint8_t> got(Size);
            for (int round = 0; round < Rounds; ++round) {
                PhysMem mem("pool" + std::to_string(t), Size);
                std::vector<std::uint8_t> oracle(Size, 0);
                const auto tag = static_cast<std::uint8_t>(
                    1 + t * Rounds + round);
                for (int op = 0; op < 6; ++op) {
                    const std::uint64_t r = rng.next();
                    const std::uint64_t off = (r >> 8) % Size;
                    const std::uint64_t len =
                        std::min<std::uint64_t>(1 + (r >> 32) % PageSize,
                                                Size - off);
                    if (r & 1) {
                        std::vector<std::uint8_t> data(len, tag);
                        if (!mem.writeAt(off, data.data(), len).isOk())
                            failures[t] = "write failed";
                    } else {
                        std::uint8_t *view = mem.view(off, len);
                        if (!view) {
                            failures[t] = "view failed";
                            return;
                        }
                        std::memset(view, tag, len);
                    }
                    std::memset(oracle.data() + off, tag, len);
                }
                if (!mem.readAt(0, got.data(), Size).isOk() ||
                    got != oracle) {
                    failures[t] = "round " + std::to_string(round) +
                                  " read bytes it never wrote";
                    return;
                }
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    for (int t = 0; t < Threads; ++t)
        EXPECT_EQ(failures[t], "") << "thread " << t;
}

TEST(MemGoldenPhysMem, WholePageScrubDropsPagesWithoutDivergence)
{
    // Page-aligned heavy stream: biased toward the zeroAt() sparse
    // page-drop path rather than byte writes.
    PhysMem mem("scrub", StreamSize);
    std::vector<std::uint8_t> oracle(StreamSize, 0);
    Rng rng{0xd10ull};
    std::vector<std::uint8_t> page(PageSize, 0x5a);
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t off = ((r >> 8) % StreamPages) * PageSize;
        if (r % 3 == 0) {
            ASSERT_TRUE(mem.zeroAt(off, PageSize).isOk());
            std::memset(oracle.data() + off, 0, PageSize);
        } else {
            page.assign(PageSize,
                        static_cast<std::uint8_t>(r >> 16));
            ASSERT_TRUE(
                mem.writeAt(off, page.data(), PageSize).isOk());
            std::memcpy(oracle.data() + off, page.data(), PageSize);
        }
    }
    expectMatchesOracle(mem, oracle, "scrub stream");
}

// ----- MemGoldenPageWalk ------------------------------------------------
//
// movePhysicalRuns() is the one translate-and-coalesce loop behind
// Mmu::read/write (MemGoldenMmu above), RootComplex::dmaRead/dmaWrite
// and GpuMemAccessor::read/write/zero. These cases drive the last two
// next to a per-page translate-then-move oracle: same bytes, same
// Status code, the same prefix before a mid-run fault and, for DMA,
// the same IOTLB counters.

namespace
{

constexpr std::uint64_t WalkMemPages = 256;
constexpr std::uint64_t WalkMemSize = WalkMemPages * PageSize;
/** Device (or GPU-virtual) pages the streams address, from WalkBase. */
constexpr std::uint64_t WalkPages = 48;
constexpr Addr WalkBase = 0x400000;
constexpr Addr Hole = ~Addr(0);

/**
 * Physical page for walk page @p i, or Hole: groups of eight pages
 * alternate between adjacent, reversed and scattered placement, and
 * about one page in six is left unmapped.
 */
Addr
walkPage(Rng &rng, std::uint64_t i)
{
    const std::uint64_t r = rng.next();
    if (r % 6 == 0)
        return Hole;
    switch (i / 8 % 3) {
      case 0:
        return (16 + i) * PageSize;
      case 1:
        return (200 - i) * PageSize;
      default:
        return ((r >> 8) % WalkMemPages) * PageSize;
    }
}

/** The oracle: translate a page, move it, go on; the first error
 * ends the access. */
template <typename Translate, typename Move>
Status
perPageOracle(Addr addr, std::uint64_t len, Translate translate,
              Move move)
{
    for (std::uint64_t done = 0; done < len;) {
        const Addr a = addr + done;
        const std::uint64_t take =
            std::min(PageSize - pageOffset(a), len - done);
        HIX_ASSIGN_OR_RETURN(const Addr pa, translate(a));
        HIX_RETURN_IF_ERROR(move(pa, done, take));
        done += take;
    }
    return Status::ok();
}

/** A random access of at most four pages that starts in the walk
 * pages or just past them, so some run off the mapped range. */
void
randomAccess(std::uint64_t r, Addr &addr, std::uint64_t &len)
{
    addr = WalkBase + ((r >> 8) % (WalkPages + 2)) * PageSize +
           (r >> 16) % PageSize;
    len = 1 + (r >> 32) % (4 * PageSize);
}

void
fillPattern(std::vector<std::uint8_t> &buf, std::uint64_t r,
            std::uint64_t len)
{
    for (std::uint64_t j = 0; j < len; ++j)
        buf[j] = static_cast<std::uint8_t>((r >> (j % 56)) + j);
}

void
expectSameMemory(PhysMem &a, PhysMem &b, const std::string &where)
{
    std::vector<std::uint8_t> x(WalkMemSize);
    std::vector<std::uint8_t> y(WalkMemSize);
    ASSERT_TRUE(a.readAt(0, x.data(), x.size()).isOk());
    ASSERT_TRUE(b.readAt(0, y.data(), y.size()).isOk());
    ASSERT_TRUE(x == y) << "memory images diverged " << where;
}

/** DRAM behind a bus, an IOMMU with a small IOTLB (so the streams
 * evict), and a root complex doing DMA through both. */
struct DmaHalf
{
    DmaHalf()
        : ram("walk_ram", WalkMemSize), iommu(8),
          rc(AddrRange(0xe0000000, 256 * MiB), &bus, &iommu)
    {
        EXPECT_TRUE(bus.attach(AddrRange(0, WalkMemSize), &ram).isOk());
        iommu.setEnabled(true);
    }

    PhysicalBus bus;
    PhysMem ram;
    Iommu iommu;
    pcie::RootComplex rc;
};

/** Per-page DMA through @p h's IOMMU and bus; exactly one of
 * @p read_to and @p write_from is non-null. */
Status
dmaOracle(DmaHalf &h, Addr addr, std::uint8_t *read_to,
          const std::uint8_t *write_from, std::uint64_t len)
{
    return perPageOracle(
        addr, len, [&](Addr a) { return h.iommu.translate(a); },
        [&](Addr pa, std::uint64_t done, std::uint64_t n) {
            return read_to ? h.bus.read(pa, read_to + done, n)
                           : h.bus.write(pa, write_from + done, n);
        });
}

void
expectSameIotlb(const Iommu &a, const Iommu &b, int op)
{
    ASSERT_EQ(a.iotlbHits(), b.iotlbHits()) << "op " << op;
    ASSERT_EQ(a.iotlbMisses(), b.iotlbMisses()) << "op " << op;
    ASSERT_EQ(a.iotlbSize(), b.iotlbSize()) << "op " << op;
}

/** A GPU context over its own VRAM. */
struct GpuHalf
{
    GpuHalf() : vram("walk_vram", WalkMemSize), ctx(7) {}

    PhysMem vram;
    gpu::GpuContext ctx;
};

/** Point GPU page @p va at VRAM page @p pa, or unmap it for Hole. */
Status
gpuRemap(gpu::GpuContext &ctx, Addr va, Addr pa)
{
    if (ctx.translate(va).isOk())
        HIX_RETURN_IF_ERROR(ctx.unmap(va, PageSize));
    return pa == Hole ? Status::ok() : ctx.map(va, pa, PageSize);
}

}  // namespace

TEST(MemGoldenPageWalk, DmaMatchesPerPageOracle)
{
    DmaHalf fast;
    DmaHalf ref;
    Rng layout{0xD3A};
    for (std::uint64_t i = 0; i < WalkPages; ++i) {
        const Addr pa = walkPage(layout, i);
        if (pa == Hole)
            continue;
        ASSERT_TRUE(fast.iommu.map(WalkBase + i * PageSize, pa).isOk());
        ASSERT_TRUE(ref.iommu.map(WalkBase + i * PageSize, pa).isOk());
    }

    Rng rng{0xD3A7};
    std::vector<std::uint8_t> buf_fast(4 * PageSize);
    std::vector<std::uint8_t> buf_ref(4 * PageSize);
    int faults = 0;
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t r = rng.next();
        Addr addr;
        std::uint64_t len;
        randomAccess(r, addr, len);
        Status a;
        Status b;
        switch (r % 8) {
          case 0:
          case 1:
          case 2:
            std::fill(buf_fast.begin(), buf_fast.end(), 0xCC);
            std::fill(buf_ref.begin(), buf_ref.end(), 0xCC);
            a = fast.rc.dmaRead(addr, buf_fast.data(), len);
            b = dmaOracle(ref, addr, buf_ref.data(), nullptr, len);
            ASSERT_TRUE(buf_fast == buf_ref) << "read bytes op " << op;
            break;
          case 3:
          case 4:
          case 5:
            fillPattern(buf_fast, r, len);
            a = fast.rc.dmaWrite(addr, buf_fast.data(), len);
            b = dmaOracle(ref, addr, nullptr, buf_fast.data(), len);
            break;
          case 6: {  // the OS redirects or drops one device page
            const Addr dpage =
                WalkBase + ((r >> 48) % WalkPages) * PageSize;
            const Addr pa = walkPage(rng, (r >> 48) % WalkPages);
            if (pa == Hole) {
                a = fast.iommu.unmap(dpage);
                b = ref.iommu.unmap(dpage);
            } else {
                fast.iommu.overwrite(dpage, pa);
                ref.iommu.overwrite(dpage, pa);
            }
            break;
          }
          default:
            fast.iommu.flushIotlb();
            ref.iommu.flushIotlb();
            break;
        }
        ASSERT_EQ(a.code(), b.code()) << "op " << op;
        faults += a.code() == StatusCode::AccessFault;
        expectSameIotlb(fast.iommu, ref.iommu, op);
        if (op % 64 == 0)
            expectSameMemory(fast.ram, ref.ram,
                             "after op " + std::to_string(op));
        if (HasFatalFailure())
            return;
    }
    expectSameMemory(fast.ram, ref.ram, "at the end");
    EXPECT_GT(faults, 100) << "the stream rarely faulted";
    EXPECT_GT(fast.iommu.iotlbHits(), 0u);
}

TEST(MemGoldenPageWalk, DmaFaultMovesThePendingRunFirst)
{
    // Device pages 0-1 map onto adjacent RAM pages and page 2 is a
    // hole: a DMA over all three faults on the hole after the
    // two-page run has moved, as the per-page loop leaves it.
    DmaHalf fast;
    DmaHalf ref;
    for (DmaHalf *h : {&fast, &ref}) {
        ASSERT_TRUE(h->iommu.map(WalkBase, 40 * PageSize).isOk());
        ASSERT_TRUE(
            h->iommu.map(WalkBase + PageSize, 41 * PageSize).isOk());
    }
    std::vector<std::uint8_t> data(3 * PageSize);
    fillPattern(data, 0x5EED, data.size());
    const Addr start = WalkBase + 100;
    const std::uint64_t len = 3 * PageSize - 200;
    EXPECT_EQ(fast.rc.dmaWrite(start, data.data(), len).code(),
              StatusCode::AccessFault);
    EXPECT_EQ(dmaOracle(ref, start, nullptr, data.data(), len).code(),
              StatusCode::AccessFault);
    expectSameMemory(fast.ram, ref.ram, "after the faulting write");

    std::vector<std::uint8_t> got(3 * PageSize, 0xEE);
    std::vector<std::uint8_t> want(3 * PageSize, 0xEE);
    EXPECT_EQ(fast.rc.dmaRead(start, got.data(), len).code(),
              StatusCode::AccessFault);
    EXPECT_EQ(dmaOracle(ref, start, want.data(), nullptr, len).code(),
              StatusCode::AccessFault);
    EXPECT_EQ(got, want);
    const std::uint64_t prefix = 2 * PageSize - 100;
    EXPECT_TRUE(
        std::equal(data.begin(), data.begin() + prefix, got.begin()));
    expectSameIotlb(fast.iommu, ref.iommu, 0);
}

TEST(MemGoldenPageWalk, GpuAccessorMatchesPerPageOracle)
{
    GpuHalf fast;
    GpuHalf ref;
    Rng layout{0x6E0};
    for (std::uint64_t i = 0; i < WalkPages; ++i) {
        const Addr va = WalkBase + i * PageSize;
        const Addr pa = walkPage(layout, i);
        ASSERT_TRUE(gpuRemap(fast.ctx, va, pa).isOk());
        ASSERT_TRUE(gpuRemap(ref.ctx, va, pa).isOk());
    }
    const gpu::GpuMemAccessor mem(&fast.ctx, &fast.vram);
    auto translate = [&](Addr va) { return ref.ctx.translate(va); };

    Rng rng{0x6E07};
    std::vector<std::uint8_t> buf_fast(4 * PageSize);
    std::vector<std::uint8_t> buf_ref(4 * PageSize);
    int faults = 0;
    for (int op = 0; op < 4000; ++op) {
        const std::uint64_t r = rng.next();
        Addr addr;
        std::uint64_t len;
        randomAccess(r, addr, len);
        Status a;
        Status b;
        switch (r % 8) {
          case 0:
          case 1:
          case 2:
            std::fill(buf_fast.begin(), buf_fast.end(), 0xCC);
            std::fill(buf_ref.begin(), buf_ref.end(), 0xCC);
            a = mem.read(addr, buf_fast.data(), len);
            b = perPageOracle(
                addr, len, translate,
                [&](Addr pa, std::uint64_t done, std::uint64_t n) {
                    return ref.vram.readAt(pa, buf_ref.data() + done, n);
                });
            ASSERT_TRUE(buf_fast == buf_ref) << "read bytes op " << op;
            break;
          case 3:
          case 4:
          case 5:
            fillPattern(buf_fast, r, len);
            a = mem.write(addr, buf_fast.data(), len);
            b = perPageOracle(
                addr, len, translate,
                [&](Addr pa, std::uint64_t done, std::uint64_t n) {
                    return ref.vram.writeAt(pa, buf_fast.data() + done,
                                            n);
                });
            break;
          case 6:
            a = mem.zero(addr, len);
            b = perPageOracle(
                addr, len, translate,
                [&](Addr pa, std::uint64_t, std::uint64_t n) {
                    return ref.vram.zeroAt(pa, n);
                });
            break;
          default: {  // remap or unmap one page
            const std::uint64_t i = (r >> 48) % WalkPages;
            const Addr pa = walkPage(rng, i);
            a = gpuRemap(fast.ctx, WalkBase + i * PageSize, pa);
            b = gpuRemap(ref.ctx, WalkBase + i * PageSize, pa);
            break;
          }
        }
        ASSERT_EQ(a.code(), b.code()) << "op " << op;
        faults += a.code() == StatusCode::AccessFault;
        if (op % 64 == 0)
            expectSameMemory(fast.vram, ref.vram,
                             "after op " + std::to_string(op));
        if (HasFatalFailure())
            return;
    }
    expectSameMemory(fast.vram, ref.vram, "at the end");
    EXPECT_GT(faults, 100) << "the stream rarely faulted";
}

TEST(MemGoldenPageWalk, GpuZeroFaultKeepsThePrefixZeroed)
{
    // GPU pages 0-1 are adjacent in VRAM, page 2 maps onto the VRAM
    // page before them and page 3 is a hole: a zero over all four
    // clears the first three as two runs, then faults.
    GpuHalf fast;
    GpuHalf ref;
    std::vector<std::uint8_t> ones(WalkMemSize, 0xFF);
    for (GpuHalf *h : {&fast, &ref}) {
        ASSERT_TRUE(
            h->ctx.map(WalkBase, 10 * PageSize, 2 * PageSize).isOk());
        ASSERT_TRUE(
            h->ctx.map(WalkBase + 2 * PageSize, 9 * PageSize, PageSize)
                .isOk());
        ASSERT_TRUE(h->vram.writeAt(0, ones.data(), ones.size()).isOk());
    }
    const gpu::GpuMemAccessor mem(&fast.ctx, &fast.vram);
    EXPECT_EQ(mem.zero(WalkBase + 8, 4 * PageSize).code(),
              StatusCode::AccessFault);
    EXPECT_EQ(perPageOracle(
                  WalkBase + 8, 4 * PageSize,
                  [&](Addr va) { return ref.ctx.translate(va); },
                  [&](Addr pa, std::uint64_t, std::uint64_t n) {
                      return ref.vram.zeroAt(pa, n);
                  })
                  .code(),
              StatusCode::AccessFault);
    expectSameMemory(fast.vram, ref.vram, "after the faulting zero");
    std::vector<std::uint8_t> page(PageSize, 0xEE);
    ASSERT_TRUE(
        fast.vram.readAt(9 * PageSize, page.data(), PageSize).isOk());
    EXPECT_EQ(page, std::vector<std::uint8_t>(PageSize, 0));
}

}  // namespace
}  // namespace hix::mem
