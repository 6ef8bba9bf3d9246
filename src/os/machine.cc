#include "os/machine.h"

#include "common/logging.h"

namespace hix::os
{

namespace
{

/** BARs are 32-bit: the MMIO window must end at or below 4 GiB. */
constexpr std::uint64_t MmioTop = 0x100000000ull;

/** MMIO window @p config's GPUs need: each claims a 256 MiB BAR1 +
 *  16 MiB BAR0, 512 MiB with alignment. */
std::uint64_t
mmioNeeded(const MachineConfig &config)
{
    return 512 * MiB *
           static_cast<std::uint64_t>(std::max(1, config.gpuCount));
}

/**
 * Multi-GPU machines need a larger MMIO window than the default
 * 512 MiB. Widen the window downwards from 4 GiB and shrink the DRAM
 * claim to make room. Panics with Machine::checkLayout()'s message
 * when the window would reach into the EPC.
 */
MachineConfig
normalized(MachineConfig config)
{
    const Status layout = Machine::checkLayout(config);
    if (!layout.isOk())
        hix_panic(layout.message());
    const std::uint64_t needed = mmioNeeded(config);
    if (needed > config.mmioSize) {
        config.mmioSize = needed;
        config.mmioBase = MmioTop - needed;
        config.ramSize =
            std::min<std::uint64_t>(config.ramSize, config.mmioBase);
    }
    return config;
}

}  // namespace

Status
Machine::checkLayout(const MachineConfig &config)
{
    const std::uint64_t epc_end = config.epcBase + config.epcSize;
    const std::uint64_t needed = mmioNeeded(config);
    if (epc_end > MmioTop || needed > MmioTop - epc_end)
        return errInvalidArgument(
            "Machine: " + std::to_string(config.gpuCount) +
            " GPUs need a " + std::to_string(needed / MiB) +
            " MiB MMIO window, which does not fit between the EPC's "
            "end and 4 GiB");
    return Status::ok();
}

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

    mmu_ = std::make_unique<mem::Mmu>(&bus_, config_.tlbCapacity);
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
        // Host-side memory footprint of the sparse page stores.
        sim::StatGroup g("mem");
        const std::size_t resident = residentPages();
        g.scalar("dram_resident_pages") += double(ram_.residentPages());
        g.scalar("resident_pages") += double(resident);
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
