/**
 * @file
 * Full-platform assembly: DRAM, PCIe fabric with the GPU, MMU,
 * SGX unit with the HIX extension, and the untrusted OS — wired
 * together in the Table 3 configuration. Tests, benches, and
 * examples build one Machine and go.
 */

#ifndef HIX_OS_MACHINE_H_
#define HIX_OS_MACHINE_H_

#include <memory>
#include <ostream>

#include "common/types.h"
#include "common/units.h"
#include "driver/vram_allocator.h"
#include "gpu/gpu_device.h"
#include "mem/iommu.h"
#include "mem/mmu.h"
#include "mem/phys_bus.h"
#include "mem/phys_mem.h"
#include "os/os_model.h"
#include "pcie/root_complex.h"
#include "sgx/hix_ext.h"
#include "sgx/sgx_unit.h"
#include "sim/platform_config.h"
#include "sim/scheduler.h"
#include "sim/stats.h"
#include "sim/trace.h"

namespace hix::os
{

/** Machine construction knobs. */
struct MachineConfig
{
    std::uint64_t ramSize = 3 * GiB;
    /** Number of GPUs on the PCIe fabric (multi-GPU, no P2P). */
    int gpuCount = 1;
    Addr epcBase = 1 * GiB;
    std::uint64_t epcSize = 128 * MiB;
    Addr mmioBase = 0xe0000000;
    std::uint64_t mmioSize = 512 * MiB;
    gpu::GpuGeometry gpuGeometry{};
    gpu::GpuPerfModel gpuPerf{};
    sim::PlatformConfig timing = sim::PlatformConfig::paper();
    std::uint64_t seed = 0x515;
    bool iommuEnabled = false;
    /** TLB engine (Reference = linear golden oracle, for tests). */
    mem::TlbEngine tlbEngine = mem::TlbEngine::Fast;
    std::size_t tlbCapacity = 256;
};

/**
 * A value snapshot of a machine's complete post-boot state: DRAM as a
 * CoW page-map snapshot, IOMMU + IOTLB, TLB, PCIe lockdown state, all
 * GPU device state (VRAM CoW snapshot, contexts, key slots, config
 * space, ROM), the SGX unit (EPC/EPCM, enclaves, platform secret) and
 * HIX extension (GECS/TGMR), the OS model (processes, page tables,
 * frame allocator), VRAM allocators, and the actor-id counter.
 *
 * The snapshot is pure value state (the TLB clone is owned): it stays
 * valid after the source machine is destroyed and may be forked from
 * concurrently — CoW page refcounts are atomic and forks only read
 * the snapshot.
 */
struct MachineSnapshot
{
    MachineConfig config;
    mem::PhysMem::Snapshot ram;
    mem::Iommu iommu;
    std::unique_ptr<mem::TlbBase> tlb;
    pcie::RootComplex::State rootComplex;
    std::vector<gpu::GpuDevice::State> gpus;
    sgx::SgxUnit::State sgx;
    sgx::HixExtension::State hixExt;
    OsModel os{0, {}};
    std::vector<driver::VramAllocator> vramAllocs;
    std::uint32_t nextActor = 0;
};

/**
 * The modelled platform. Construction enumerates the PCIe tree and
 * registers all protection hooks; the machine is immediately usable.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = MachineConfig{});

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return config_; }

    mem::PhysicalBus &bus() { return bus_; }
    mem::PhysMem &ram() { return ram_; }
    mem::Iommu &iommu() { return iommu_; }
    pcie::RootComplex &rootComplex() { return *rc_; }
    /** The primary GPU. */
    gpu::GpuDevice &gpu() { return *gpus_[0]; }
    /** GPU @p index on a multi-GPU machine. */
    gpu::GpuDevice &gpuAt(int index) { return *gpus_[index]; }
    int gpuCount() const { return static_cast<int>(gpus_.size()); }
    mem::Mmu &mmu() { return *mmu_; }
    sgx::SgxUnit &sgx() { return *sgx_; }
    sgx::HixExtension &hixExt() { return *hix_ext_; }
    OsModel &os() { return *os_; }

    /**
     * Device-global VRAM allocator every driver instance on this
     * machine must share (pass as GdevConfig::sharedVram).
     */
    driver::VramAllocator &vram() { return *vram_allocs_[0]; }
    driver::VramAllocator &vramAt(int index)
    {
        return *vram_allocs_[index];
    }

    /** Timing trace shared by all actors on this machine. */
    sim::Trace &trace() { return trace_; }
    sim::TraceRecorder &recorder() { return recorder_; }

    /**
     * Move the recorded trace out, leaving the machine with a fresh
     * empty trace (the recorder stays bound to the same object). A
     * bare std::move(trace()) leaves the trace without its interned
     * empty label, so the first real label recorded after a reuse
     * would collide with NoLabel; shard recording takes its window
     * this way so a reused (re-restored) machine records correctly.
     */
    sim::Trace takeTrace()
    {
        sim::Trace out = std::move(trace_);
        trace_ = sim::Trace();
        return out;
    }

    /** Allocate a fresh timing-actor id (one per modelled thread). */
    std::uint32_t nextActor() { return next_actor_++; }

    /** Run the scheduler over the recorded trace. */
    sim::ScheduleResult scheduleTrace() const;

    /** Clear the recorded trace (between benchmark repetitions). */
    void clearTrace();

    /**
     * Platform power cycle (Section 4.2.3): resets the GPU (scrubbing
     * device memory), clears all SGX and HIX hardware state, and
     * lifts any PCIe lockdown.
     */
    void coldBoot();

    /**
     * Capture this machine's full post-boot state. O(pages-touched):
     * DRAM and VRAM are captured as CoW overlay snapshots (each
     * private page is copied once into a shared page, which the
     * machine and the snapshot then share). The trace is NOT part of
     * the snapshot (forks start recording fresh).
     */
    MachineSnapshot snapshot();

    /**
     * Build a machine indistinguishable from the one @p snap was
     * taken of: constructs a fresh machine with the snapshot's config
     * (re-running the deterministic platform assembly + enumeration),
     * then overwrites all mutable state from the snapshot. Writes in
     * the fork copy-on-write; the snapshot and its other forks never
     * observe them. Thread-safe against concurrent forks of the same
     * snapshot.
     */
    static std::unique_ptr<Machine> fork(const MachineSnapshot &snap);

    /**
     * Re-point an existing machine at @p snap: overwrite all mutable
     * state, exactly as fork() does after construction. The machine
     * must have been built with the same config (sizes/GPU count are
     * panic-checked). The session-fork fast path reuses one machine
     * per recording worker this way, skipping even the (cheap)
     * platform re-assembly; the recorded trace is not touched —
     * callers clear it before opening the next window.
     */
    void restoreSnapshot(const MachineSnapshot &snap)
    {
        restore(snap);
    }

    /** Dump hardware counters (GPU, PCIe, TLB) as gem5-style stats. */
    void dumpStats(std::ostream &os) const;

    /**
     * Host pages privately materialised by this machine (DRAM +
     * VRAM). A fork's count starts near zero and grows only with the
     * pages it actually writes; a cold-booted machine owns every
     * touched page. The bench's resident_pages_per_session metric.
     */
    std::size_t residentPages() const;

  private:
    /** Overwrite mutable state from @p snap (fork() step two). */
    void restore(const MachineSnapshot &snap);

    MachineConfig config_;
    mem::PhysicalBus bus_;
    mem::PhysMem ram_;
    mem::Iommu iommu_;
    std::unique_ptr<pcie::RootComplex> rc_;
    std::vector<std::unique_ptr<gpu::GpuDevice>> gpus_;
    std::unique_ptr<mem::Mmu> mmu_;
    std::unique_ptr<sgx::SgxUnit> sgx_;
    std::unique_ptr<sgx::HixExtension> hix_ext_;
    std::unique_ptr<OsModel> os_;
    std::vector<std::unique_ptr<driver::VramAllocator>> vram_allocs_;
    sim::Trace trace_;
    sim::TraceRecorder recorder_;
    std::uint32_t next_actor_ = 0;
};

}  // namespace hix::os

#endif  // HIX_OS_MACHINE_H_
