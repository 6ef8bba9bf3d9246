#include "os/machine.h"

#include "common/logging.h"

namespace hix::os
{

namespace
{

/**
 * Multi-GPU machines need a larger MMIO window than the default
 * 512 MiB (each GPU claims a 256 MiB BAR1 + 16 MiB BAR0). Widen the
 * window downwards — BARs are 32-bit, so it must stay below 4 GiB —
 * and shrink the DRAM claim to make room.
 */
MachineConfig
normalized(MachineConfig config)
{
    const std::uint64_t per_gpu = 512 * MiB;  // aperture + alignment
    const std::uint64_t needed =
        per_gpu * std::max(1, config.gpuCount);
    if (needed > config.mmioSize) {
        config.mmioSize = needed;
        config.mmioBase = 0x100000000ull - needed;
        config.ramSize =
            std::min<std::uint64_t>(config.ramSize, config.mmioBase);
    }
    return config;
}

}  // namespace

Machine::Machine(const MachineConfig &config)
    : config_(normalized(config)),
      ram_("dram", config_.ramSize),
      recorder_(&trace_)
{
    if (!bus_.attach(AddrRange(0, config_.ramSize), &ram_).isOk())
        hix_panic("Machine: cannot attach DRAM");

    iommu_.setEnabled(config_.iommuEnabled);

    rc_ = std::make_unique<pcie::RootComplex>(
        AddrRange(config_.mmioBase, config_.mmioSize), &bus_, &iommu_);
    for (int i = 0; i < std::max(1, config_.gpuCount); ++i) {
        gpus_.push_back(std::make_unique<gpu::GpuDevice>(
            "gtx580-" + std::to_string(i), config_.gpuGeometry,
            config_.gpuPerf, config_.timing,
            config_.seed ^ (0x9e37 + 0x1111u * i)));
        if (!rc_->attachDevice(i, gpus_.back().get()).isOk())
            hix_panic("Machine: cannot attach GPU");
    }
    if (!rc_->enumerate().isOk())
        hix_panic("Machine: PCIe enumeration failed");
    if (!bus_.attach(AddrRange(config_.mmioBase, config_.mmioSize),
                     rc_.get())
             .isOk())
        hix_panic("Machine: cannot attach MMIO window");

    mmu_ = std::make_unique<mem::Mmu>(&bus_, config_.tlbCapacity,
                                      config_.tlbEngine);
    sgx_ = std::make_unique<sgx::SgxUnit>(
        AddrRange(config_.epcBase, config_.epcSize), mmu_.get(),
        config_.seed);
    hix_ext_ = std::make_unique<sgx::HixExtension>(sgx_.get(), rc_.get());

    os_ = std::make_unique<OsModel>(
        config_.ramSize,
        std::vector<AddrRange>{AddrRange(config_.epcBase,
                                         config_.epcSize)});
    mmu_->setPageTableProvider([this](ProcessId pid) {
        return os_->pageTableOf(pid);
    });

    // The VRAM heap leaves the low 16 MiB to device structures.
    for (std::size_t i = 0; i < gpus_.size(); ++i) {
        vram_allocs_.push_back(
            std::make_unique<driver::VramAllocator>(16 * MiB, 1 * GiB));
    }
}

sim::ScheduleResult
Machine::scheduleTrace() const
{
    sim::SchedulerConfig cfg;
    cfg.gpuCtxSwitchTicks = config_.timing.gpuCtxSwitch;
    return sim::schedule(trace_, cfg);
}

void
Machine::clearTrace()
{
    // Both keep their reserved storage: benchmark repetition loops
    // record into already-sized op/label/chain vectors.
    trace_.clear();
    recorder_.reset();
    // Actor ids are NOT reset: live runtimes keep their identity
    // across measurement windows.
}

MachineSnapshot
Machine::snapshot()
{
    MachineSnapshot snap;
    snap.config = config_;
    snap.ram = ram_.snapshot();
    snap.iommu = iommu_;
    snap.tlb = mmu_->tlb().clone();
    snap.rootComplex = rc_->captureState();
    snap.gpus.reserve(gpus_.size());
    for (const auto &gpu : gpus_)
        snap.gpus.push_back(gpu->captureState());
    snap.sgx = sgx_->captureState();
    snap.hixExt = hix_ext_->captureState();
    snap.os = *os_;
    snap.vramAllocs.reserve(vram_allocs_.size());
    for (const auto &v : vram_allocs_)
        snap.vramAllocs.push_back(*v);
    snap.nextActor = next_actor_;
    return snap;
}

void
Machine::restore(const MachineSnapshot &snap)
{
    if (!ram_.adopt(snap.ram).isOk())
        hix_panic("Machine: DRAM snapshot size mismatch");
    iommu_ = snap.iommu;  // value type; rc_ keeps pointing at iommu_
    mmu_->adoptTlb(snap.tlb->clone());
    rc_->restoreState(snap.rootComplex);
    if (snap.gpus.size() != gpus_.size())
        hix_panic("Machine: GPU count mismatch in snapshot");
    for (std::size_t i = 0; i < gpus_.size(); ++i)
        gpus_[i]->restoreState(snap.gpus[i]);
    sgx_->restoreState(snap.sgx);
    hix_ext_->restoreState(snap.hixExt);
    // Assignment, not reseating: the MMU's page-table provider lambda
    // captured this machine and dereferences os_ on every walk.
    *os_ = snap.os;
    if (snap.vramAllocs.size() != vram_allocs_.size())
        hix_panic("Machine: VRAM allocator count mismatch in snapshot");
    for (std::size_t i = 0; i < vram_allocs_.size(); ++i)
        *vram_allocs_[i] = snap.vramAllocs[i];
    next_actor_ = snap.nextActor;
}

std::unique_ptr<Machine>
Machine::fork(const MachineSnapshot &snap)
{
    // The normal constructor re-runs the deterministic platform
    // assembly (bus wiring, PCIe enumeration, validator registration
    // — all pointer plumbing a value snapshot cannot carry), then
    // restore() overwrites every piece of mutable state.
    auto machine = std::make_unique<Machine>(snap.config);
    machine->restore(snap);
    return machine;
}

void
Machine::dumpStats(std::ostream &out) const
{
    for (std::size_t i = 0; i < gpus_.size(); ++i) {
        sim::StatGroup g("gpu" + std::to_string(i));
        const auto &s = gpus_[i]->stats();
        g.scalar("commands") += double(s.commands);
        g.scalar("kernels") += double(s.kernels);
        g.scalar("crypto_kernels") += double(s.cryptoKernels);
        g.scalar("bytes_h2d") += double(s.bytesH2D);
        g.scalar("bytes_d2h") += double(s.bytesD2H);
        g.scalar("mac_failures") += double(s.macFailures);
        g.scalar("scrubbed_bytes") += double(s.scrubbedBytes);
        g.scalar("resets") += double(s.resets);
        g.dump(out);
    }
    {
        sim::StatGroup g("pcie");
        const auto &s = rc_->stats();
        g.scalar("mem_reads") += double(s.memReads);
        g.scalar("mem_writes") += double(s.memWrites);
        g.scalar("cfg_reads") += double(s.cfgReads);
        g.scalar("cfg_writes") += double(s.cfgWrites);
        g.scalar("lockdown_drops") += double(s.lockdownDrops);
        g.scalar("unroutable") += double(s.unroutable);
        g.dump(out);
    }
    {
        // Host-side memory footprint of the sparse/CoW page stores:
        // resident pages are privately owned by this machine, shared
        // pages ride on a snapshot at zero marginal cost.
        sim::StatGroup g("mem");
        std::size_t resident = ram_.residentPages();
        std::size_t shared = ram_.sharedPages();
        g.scalar("dram_resident_pages") += double(ram_.residentPages());
        g.scalar("dram_shared_pages") += double(ram_.sharedPages());
        for (const auto &gpu : gpus_) {
            resident += gpu->vramResidentPages();
            shared += gpu->vramSharedPages();
        }
        g.scalar("resident_pages") += double(resident);
        g.scalar("shared_pages") += double(shared);
        g.scalar("resident_bytes") +=
            double(resident) * double(mem::PageSize);
        g.dump(out);
    }
    {
        sim::StatGroup g("tlb");
        g.scalar("hits") += double(mmu_->tlbHits());
        g.scalar("misses") += double(mmu_->tlbMisses());
        g.dump(out);
    }
    {
        sim::StatGroup g("iotlb");
        g.scalar("hits") += double(iommu_.iotlbHits());
        g.scalar("misses") += double(iommu_.iotlbMisses());
        g.dump(out);
    }
}

std::size_t
Machine::residentPages() const
{
    std::size_t n = ram_.residentPages();
    for (const auto &gpu : gpus_)
        n += gpu->vramResidentPages();
    return n;
}

void
Machine::coldBoot()
{
    sgx_->platformReset();   // also resets GECS/TGMR and lockdown
    for (auto &g : gpus_)
        g->reset();          // scrubs device memory and key slots
    for (auto &v : vram_allocs_)
        v->reset();
    mmu_->flushTlbAll();
    iommu_.flushIotlb();
}

}  // namespace hix::os
