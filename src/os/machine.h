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
    std::size_t tlbCapacity = 256;
};

/**
 * The modelled platform. Construction enumerates the PCIe tree and
 * registers all protection hooks; the machine is immediately usable.
 */
class Machine
{
  public:
    /** Panics when checkLayout(@p config) fails. */
    explicit Machine(const MachineConfig &config = MachineConfig{});

    /**
     * InvalidArgument when @p config's physical layout cannot be
     * built: the MMIO window, widened to 512 MiB per GPU, must fit
     * between the end of the EPC and 4 GiB (BARs are 32-bit). At the
     * default layout that allows at most five GPUs.
     */
    static Status checkLayout(const MachineConfig &config);

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
     * empty label, so the first real label recorded afterwards would
     * collide with NoLabel.
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

    /** Dump hardware counters (GPU, PCIe, TLB) as gem5-style stats. */
    void dumpStats(std::ostream &os) const;

    /**
     * Host pages materialised by this machine (DRAM + VRAM): every
     * page it has written. The bench's resident_pages_per_session
     * metric.
     */
    std::size_t residentPages() const;

  private:
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
