/**
 * @file
 * Gdev-like user-level GPU driver (Kato et al.), the CUDA platform
 * the paper builds on. One driver instance serves one client thread;
 * the same core runs inside the OS (unprotected baseline) or inside
 * the HIX GPU enclave, differing only in its MmioPort.
 *
 * The driver is also the timing boundary: every submission drains the
 * device's cost records and appends timed ops to the platform trace,
 * attributing work to the right modelled resource (copy engines, the
 * compute engine, the caller's CPU). Synchronization is MMIO polling,
 * as in Gdev (Section 5.2 of the paper).
 */

#ifndef HIX_DRIVER_GDEV_DRIVER_H_
#define HIX_DRIVER_GDEV_DRIVER_H_

#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "driver/mmio_port.h"
#include "driver/vram_allocator.h"
#include "gpu/gpu_device.h"
#include "sim/platform_config.h"
#include "sim/trace.h"

namespace hix::driver
{

/** Driver configuration. */
struct GdevConfig
{
    sim::PlatformConfig timing = sim::PlatformConfig::paper();
    /**
     * Zero device memory on memFree. Stock Gdev (and the CUDA stack
     * of the paper's era) does not scrub, which is what enables the
     * residual-data leaks of [17,45,51]; the HIX GPU enclave turns
     * this on (Section 4.5).
     */
    bool scrubOnFree = false;
    /**
     * Timing-size decoupling: functional payloads may be scaled down
     * by this factor while timed byte counts are scaled back up, so
     * benches can model the paper's multi-hundred-MB transfers
     * without moving that many host bytes. 1 = fully functional.
     */
    std::uint64_t timingScale = 1;
    /** Timing actor and CPU resource of the calling thread. */
    std::uint32_t actor = 0;
    sim::ResourceId cpuResource{sim::ResUnit::UserCpu, 0};
    /** Bytes of BAR1 the port may touch (PIO window). */
    std::uint64_t pioWindowBytes = 4 * MiB;
    /** VRAM managed by the allocator (low 16MiB left to the device). */
    Addr vramHeapBase = 16 * MiB;
    std::uint64_t vramHeapSize = 1 * GiB;
    /**
     * Device-global VRAM allocator shared by all driver instances on
     * one machine (in real Gdev this bookkeeping lives in the kernel
     * module). When null, the driver owns a private allocator — only
     * safe when it is the device's sole driver.
     */
    VramAllocator *sharedVram = nullptr;
    /**
     * First GPU context id this driver hands out. Zero (the default)
     * draws a block from a process-global counter, which is fine for
     * single-machine runs but nondeterministic when machines are
     * built on concurrent threads; the sharded multi-user runner
     * passes an explicit per-shard base so recorded context ids do
     * not depend on thread scheduling.
     */
    GpuContextId ctxBase = 0;
    /**
     * Pool index of the GPU this driver drives. Timed ops land on
     * device-indexed resources (copy engines, PIO path, and the
     * compute-queue block [deviceIndex*queues, ...]) so a multi-GPU
     * schedule never serializes independent devices against each
     * other. Device 0 reproduces the single-GPU resource ids exactly.
     */
    std::uint16_t deviceIndex = 0;
};

/**
 * Timing resource a GPU-engine op lands on. Pure function of the
 * platform config so tests, the service layer, and both runtimes agree
 * on the mapping:
 *  - Compute   -> GpuCompute[device * queues + ctx % queues]
 *  - CopyHtoD  -> DmaHtoD[device * channels + ctx % channels]
 *  - CopyDtoH  -> DmaDtoH[device * channels + ctx % channels]
 *  - Control   -> @p cpu (the calling thread's CPU resource)
 * with queues = max(1, timing.gpuConcurrentContexts) and
 * channels = max(1, timing.gpuDmaChannels). Indices are
 * device-blocked (sim::deviceBlockedResourceIndex) and overflow of
 * the uint16_t index range panics instead of wrapping.
 */
sim::ResourceId engineResource(gpu::GpuEngine engine, GpuContextId ctx,
                               const sim::PlatformConfig &timing,
                               std::uint16_t device_index,
                               sim::ResourceId cpu);

/**
 * Timing resource of a programmed-I/O access from context @p ctx:
 * PcieMmio[device * channels + ctx % channels], laned by the same
 * gpuDmaChannels knob as the copy engines (Volta-style per-context
 * protected MMIO windows). channels = 1 gives PcieMmio[device],
 * today's id.
 */
sim::ResourceId pioResource(GpuContextId ctx,
                            const sim::PlatformConfig &timing,
                            std::uint16_t device_index);

/** Outcome of a timed submission. */
struct SubmitResult
{
    /** Trace op of the last GPU-side action (InvalidOpId when
     * recording is off). */
    sim::OpId gpuOp = sim::InvalidOpId;
};

/** The driver. */
class GdevDriver
{
  public:
    struct Allocation
    {
        Addr vramPa = 0;
        std::uint64_t size = 0;
    };

    GdevDriver(gpu::GpuDevice *device, std::unique_ptr<MmioPort> port,
               sim::TraceRecorder *recorder, GdevConfig config);

    const GdevConfig &config() const { return config_; }
    gpu::GpuDevice *device() { return device_; }

    /**
     * The timing actor attributed to calls. The GPU enclave uses one
     * logical worker (actor) per session so concurrent users'
     * requests do not falsely serialize in the trace; the CPU
     * *resource* stays shared, which is where the real contention
     * lives.
     */
    std::uint32_t actor() const { return config_.actor; }

    /**
     * Switch both the actor and the CPU resource (pre-Volta MPS
     * mode: several user processes funnel through one shared driver
     * and GPU context, but their CPU work runs on their own cores).
     */
    void
    setClient(std::uint32_t actor, sim::ResourceId cpu)
    {
        config_.actor = actor;
        config_.cpuResource = cpu;
    }

    // ----- Contexts -------------------------------------------------------
    Result<GpuContextId> createContext();
    Status destroyContext(GpuContextId ctx);

    /**
     * Pin the id the next createContext() returns. Deterministic-id
     * injection for the sharded multi-user runner (see
     * HixConfig::sessionCtxBase); ids the driver already handed out
     * must not be re-pinned.
     */
    void setNextContext(GpuContextId ctx) { next_ctx_ = ctx; }

    /** Id the next createContext() will return (deterministic peek). */
    GpuContextId nextContext() const { return next_ctx_; }

    // ----- Memory ---------------------------------------------------------
    /** Allocate device memory; returns a GPU virtual address. */
    Result<Addr> memAlloc(GpuContextId ctx, std::uint64_t size);

    /** Free (and, with scrubOnFree, cleanse) an allocation. */
    Status memFree(GpuContextId ctx, Addr gpu_va);

    /** VRAM physical address backing @p gpu_va (driver bookkeeping). */
    Result<Addr> vramAddrOf(GpuContextId ctx, Addr gpu_va) const;

    /**
     * Low-level mapping primitives for memory managers layered above
     * the driver (the HIX managed-memory pager): install/remove
     * context PTEs at an explicit GPU VA for caller-owned VRAM.
     * Unlike memAlloc/memFree, no allocation bookkeeping is kept.
     */
    Result<SubmitResult> mapRange(GpuContextId ctx, Addr gpu_va,
                                  Addr vram_pa, std::uint64_t bytes);
    Result<SubmitResult> unmapRange(GpuContextId ctx, Addr gpu_va,
                                    std::uint64_t bytes);

    /** The VRAM allocator this driver draws from. */
    VramAllocator *vram() { return vram_; }

    // ----- Data movement --------------------------------------------------
    /**
     * DMA copy host->device. @p host_pa is a pinned, device-visible
     * buffer address. When @p async, the caller's CPU does not wait;
     * the returned op is the DMA completion for explicit chaining.
     */
    Result<SubmitResult> memcpyHtoD(GpuContextId ctx, Addr host_pa,
                                    Addr gpu_va, std::uint64_t bytes,
                                    bool async = false,
                                    std::span<const sim::OpId> deps = {});

    /** Braced-list convenience for @p deps. */
    Result<SubmitResult>
    memcpyHtoD(GpuContextId ctx, Addr host_pa, Addr gpu_va,
               std::uint64_t bytes, bool async,
               std::initializer_list<sim::OpId> deps)
    {
        return memcpyHtoD(ctx, host_pa, gpu_va, bytes, async,
                          std::span<const sim::OpId>(deps.begin(),
                                                     deps.size()));
    }

    /** DMA copy device->host. */
    Result<SubmitResult> memcpyDtoH(GpuContextId ctx, Addr gpu_va,
                                    Addr host_pa, std::uint64_t bytes,
                                    bool async = false,
                                    std::span<const sim::OpId> deps = {});

    /** Braced-list convenience for @p deps. */
    Result<SubmitResult>
    memcpyDtoH(GpuContextId ctx, Addr gpu_va, Addr host_pa,
               std::uint64_t bytes, bool async,
               std::initializer_list<sim::OpId> deps)
    {
        return memcpyDtoH(ctx, gpu_va, host_pa, bytes, async,
                          std::span<const sim::OpId>(deps.begin(),
                                                     deps.size()));
    }

    /** Programmed-I/O write through the BAR1 window (small data). */
    Status writeVramPio(GpuContextId ctx, Addr gpu_va,
                        const Bytes &data);

    /** Programmed-I/O read through the BAR1 window. */
    Result<Bytes> readVramPio(GpuContextId ctx, Addr gpu_va,
                              std::size_t len);

    // ----- Execution ------------------------------------------------------
    /** Resolve a kernel (CUDA module load analogue). */
    Result<gpu::KernelId> loadModule(const std::string &kernel_name);

    Result<SubmitResult> launchKernel(GpuContextId ctx,
                                      gpu::KernelId kernel,
                                      const gpu::KernelArgs &args,
                                      bool async = false,
                                      std::span<const sim::OpId> deps = {});

    /** Braced-list convenience for @p deps. */
    Result<SubmitResult>
    launchKernel(GpuContextId ctx, gpu::KernelId kernel,
                 const gpu::KernelArgs &args, bool async,
                 std::initializer_list<sim::OpId> deps)
    {
        return launchKernel(ctx, kernel, args, async,
                            std::span<const sim::OpId>(deps.begin(),
                                                       deps.size()));
    }

    /** Explicitly zero a device range. */
    Result<SubmitResult> scrub(GpuContextId ctx, Addr gpu_va,
                               std::uint64_t bytes);

    // ----- In-GPU crypto (used by the HIX GPU enclave) --------------------
    Result<SubmitResult> gpuOcb(bool encrypt, GpuContextId ctx,
                                std::uint32_t slot, Addr src_va,
                                Addr dst_va, std::uint64_t pt_bytes,
                                std::uint32_t stream,
                                std::uint64_t counter,
                                bool async = false,
                                std::span<const sim::OpId> deps = {});

    /** Braced-list convenience for @p deps. */
    Result<SubmitResult>
    gpuOcb(bool encrypt, GpuContextId ctx, std::uint32_t slot,
           Addr src_va, Addr dst_va, std::uint64_t pt_bytes,
           std::uint32_t stream, std::uint64_t counter, bool async,
           std::initializer_list<sim::OpId> deps)
    {
        return gpuOcb(encrypt, ctx, slot, src_va, dst_va, pt_bytes,
                      stream, counter, async,
                      std::span<const sim::OpId>(deps.begin(),
                                                 deps.size()));
    }

    Result<SubmitResult> dhMix(GpuContextId ctx, std::uint32_t slot,
                               Addr in_va, Addr out_va);

    Result<SubmitResult> dhSetKey(GpuContextId ctx, std::uint32_t slot,
                                  Addr in_va);

    Result<SubmitResult> dhClearKey(GpuContextId ctx,
                                    std::uint32_t slot);

    /**
     * Join the caller's program order with a previously async op (a
     * polling wait on the fence register).
     */
    void sync(sim::OpId op);

    /**
     * Full device reset through the BAR0 reset register (the GPU
     * enclave uses this during initialization and on graceful
     * termination to cleanse device state).
     */
    Status deviceReset();

  private:
    Result<SubmitResult> submit(gpu::GpuOp op, GpuContextId ctx,
                                const std::vector<std::uint64_t> &args,
                                bool async,
                                std::span<const sim::OpId> deps);
    Tick scaledDuration(const gpu::CostRecord &record) const;
    sim::ResourceId resourceFor(gpu::GpuEngine engine,
                                GpuContextId ctx) const;
    static sim::OpKind kindFor(gpu::GpuOp op);

    gpu::GpuDevice *device_;
    std::unique_ptr<MmioPort> port_;
    sim::TraceRecorder *recorder_;
    GdevConfig config_;
    VramAllocator own_vram_;
    VramAllocator *vram_;
    std::map<std::pair<GpuContextId, Addr>, Allocation> allocations_;
    std::map<GpuContextId, Addr> va_cursor_;
    GpuContextId next_ctx_;
};

}  // namespace hix::driver

#endif  // HIX_DRIVER_GDEV_DRIVER_H_
