/**
 * @file
 * Memory-system microbench: the substrate cost every modelled access
 * pays, on the production engines (mem::Mmu and its Tlb). Three
 * sweeps:
 *
 *  - translate throughput on a hot page set while the TLB carries
 *    multi-tenant residue (other processes' entries), the state a
 *    busy modelled machine actually runs in;
 *  - bulk virtual-address copy MB/s over working sets from 64 KiB to
 *    8 MiB (one walk per page, one bus call per physical run);
 *  - flush-storm cost: repeated fill + flushAll cycles (an O(1)
 *    epoch bump).
 *
 * Writes BENCH_mem.json. The rows keep the "engine=fast" suffix of
 * the days when each sweep also timed the linear oracles, which are
 * test-only code now (tests/oracles/).
 */

#include <cstdio>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_json.h"
#include "common/units.h"
#include "mem/mmu.h"
#include "mem/phys_bus.h"
#include "mem/phys_mem.h"

using namespace hix;
using namespace hix::mem;

namespace
{

bench::BenchJson json("mem");

constexpr std::uint64_t RamSize = 32 * MiB;
constexpr Addr VaBase = 0x10000000;

/** Bus + RAM + per-pid page tables + one MMU. */
struct System
{
    explicit System(std::size_t tlb_capacity)
        : ram("bench_ram", RamSize), mmu(&bus, tlb_capacity)
    {
        if (!bus.attach(AddrRange(0, RamSize), &ram).isOk())
            std::abort();
        mmu.setPageTableProvider(
            [this](ProcessId pid) { return &tables[pid]; });
    }

    PhysicalBus bus;
    PhysMem ram;
    Mmu mmu;
    std::unordered_map<ProcessId, PageTable> tables;
};

/**
 * Hot-set translate throughput with multi-tenant TLB residue:
 * 30 other processes keep 240 of the 256 entries occupied, the hot
 * process loops over 8 pages. Returns translates per microsecond.
 */
double
translateThroughput()
{
    System sys(256);
    constexpr int ResiduePids = 30;
    constexpr int ResiduePages = 8;
    constexpr int HotPages = 8;
    for (int p = 0; p < ResiduePids; ++p)
        for (int i = 0; i < ResiduePages; ++i)
            (void)sys.tables[ProcessId(2 + p)].map(
                VaBase + Addr(i) * PageSize,
                Addr(64 + p * ResiduePages + i) * PageSize, PermRead);
    for (int i = 0; i < HotPages; ++i)
        (void)sys.tables[1].map(VaBase + Addr(i) * PageSize,
                                Addr(i) * PageSize, PermRead);

    // Fill the residue, then re-touch it so it is more recent than
    // nothing — the hot loop below keeps the hot set most-recent.
    for (int p = 0; p < ResiduePids; ++p) {
        ExecContext ctx{ProcessId(2 + p), InvalidEnclaveId};
        for (int i = 0; i < ResiduePages; ++i)
            (void)sys.mmu.translate(ctx, VaBase + Addr(i) * PageSize,
                                    AccessType::Read);
    }

    constexpr int Iterations = 200000;
    ExecContext hot{1, InvalidEnclaveId};
    // Warm the hot set.
    for (int i = 0; i < HotPages; ++i)
        (void)sys.mmu.translate(hot, VaBase + Addr(i) * PageSize,
                                AccessType::Read);
    const std::uint64_t misses_before = sys.mmu.tlbMisses();
    bench::HostTimer timer;
    std::uint64_t sink = 0;
    for (int it = 0; it < Iterations; ++it)
        for (int i = 0; i < HotPages; ++i) {
            auto pa = sys.mmu.translate(
                hot, VaBase + Addr(i) * PageSize + 64,
                AccessType::Read);
            sink += *pa;
        }
    const double host_ms = timer.ms();
    if (sys.mmu.tlbMisses() != misses_before)
        std::printf("  warning: hot loop missed\n");
    const double total = double(Iterations) * HotPages;
    const double per_us = total / (host_ms * 1000.0);
    json.add("translate hot=8 residue=240 engine=fast", 0, host_ms)
        .metric("translates_per_us", per_us)
        .metric("tlb_hits", double(sys.mmu.tlbHits()))
        .metric("tlb_misses", double(sys.mmu.tlbMisses()))
        .metric("checksum", double(sink & 0xffff));
    return per_us;
}

/**
 * Bulk copy MB/s over @p bytes. Runs with the same multi-tenant TLB
 * residue as the translate sweep: on an idle TLB the copy is
 * memcpy-bound, which is not the state a busy modelled machine
 * copies in.
 */
double
bulkCopy(std::uint64_t bytes)
{
    // Machine-default TLB capacity. Small working sets run in the
    // residue-bound regime, 1 MiB+ working sets in the thrash regime
    // (capacity misses every page).
    constexpr std::size_t Capacity = 256;
    System sys(Capacity);
    // As much residue as fits beside the hot set: over-filling would
    // just evict it after the first rep and measure an idle TLB.
    constexpr int ResiduePages = 8;
    const int residue_pids = static_cast<int>(
        bytes / PageSize >= Capacity
            ? 0
            : (Capacity - bytes / PageSize) / ResiduePages);
    for (int p = 0; p < residue_pids; ++p)
        for (int i = 0; i < ResiduePages; ++i)
            (void)sys.tables[ProcessId(2 + p)].map(
                VaBase + Addr(i) * PageSize,
                Addr(p * ResiduePages + i) * PageSize, PermRead);
    for (int p = 0; p < residue_pids; ++p) {
        ExecContext res{ProcessId(2 + p), InvalidEnclaveId};
        for (int i = 0; i < ResiduePages; ++i)
            (void)sys.mmu.translate(res, VaBase + Addr(i) * PageSize,
                                    AccessType::Read);
    }

    const std::uint64_t pages = bytes / PageSize;
    for (std::uint64_t i = 0; i < pages; ++i)
        (void)sys.tables[1].map(VaBase + i * PageSize,
                                MiB + i * PageSize,
                                PermRead | PermWrite);
    ExecContext ctx{1, InvalidEnclaveId};
    std::vector<std::uint8_t> buf(bytes);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 13);

    // Enough repetitions to dominate timer noise on small sets.
    const int reps =
        static_cast<int>(std::max<std::uint64_t>(4, 32 * MiB / bytes));
    bench::HostTimer timer;
    for (int r = 0; r < reps; ++r) {
        Status wr = sys.mmu.write(ctx, VaBase, buf.data(), bytes);
        Status rd = sys.mmu.read(ctx, VaBase, buf.data(), bytes);
        if (!wr.isOk() || !rd.isOk())
            std::abort();
    }
    const double host_ms = timer.ms();
    const double mb =
        double(bytes) * 2 * reps / double(1 << 20);  // W + R
    const double mbps = mb / (host_ms / 1000.0);
    json.add("bulk_copy kib=" + std::to_string(bytes / KiB) +
                 " tlb=256 engine=fast",
             0, host_ms)
        .metric("mb_per_s", mbps)
        .metric("tlb_hits", double(sys.mmu.tlbHits()))
        .metric("tlb_misses", double(sys.mmu.tlbMisses()));
    return mbps;
}

/** Cost of fill-then-flushAll cycles, in cycles per millisecond. */
double
flushStorm()
{
    System sys(256);
    constexpr int FillPages = 64;
    for (int i = 0; i < FillPages; ++i)
        (void)sys.tables[1].map(VaBase + Addr(i) * PageSize,
                                Addr(i) * PageSize, PermRead);
    ExecContext ctx{1, InvalidEnclaveId};
    constexpr int Cycles = 4000;
    bench::HostTimer timer;
    for (int c = 0; c < Cycles; ++c) {
        for (int i = 0; i < FillPages; ++i)
            (void)sys.mmu.translate(ctx, VaBase + Addr(i) * PageSize,
                                    AccessType::Read);
        sys.mmu.flushTlbAll();
    }
    const double host_ms = timer.ms();
    const double cycles_per_ms = Cycles / host_ms;
    json.add("flush_storm fill=64 engine=fast", 0, host_ms)
        .metric("cycles_per_ms", cycles_per_ms)
        .metric("tlb_misses", double(sys.mmu.tlbMisses()));
    return cycles_per_ms;
}

}  // namespace

int
main()
{
    std::printf("Memory-system fast path\n\n");

    std::printf("hot translate (240-entry residue): %8.1f/us\n",
                translateThroughput());

    std::printf("\n%-12s | %12s\n", "working set", "MB/s");
    for (std::uint64_t bytes : {64 * KiB, 1 * MiB, 2 * MiB, 8 * MiB})
        std::printf("%9llu KiB | %12.0f\n",
                    static_cast<unsigned long long>(bytes / KiB),
                    bulkCopy(bytes));

    std::printf("\nflush storm (fill 64 + flushAll): %8.1f/ms\n",
                flushStorm());
    return json.write() ? 0 : 1;
}
