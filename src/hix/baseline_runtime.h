/**
 * @file
 * The unprotected baseline: a user process driving the GPU through an
 * OS-resident Gdev driver, exactly the "Gdev" configuration the
 * paper's evaluation compares HIX against. No enclaves, no
 * encryption, no lockdown — and therefore fully exposed to the
 * privileged attacker.
 */

#ifndef HIX_HIX_BASELINE_RUNTIME_H_
#define HIX_HIX_BASELINE_RUNTIME_H_

#include <memory>
#include <string>

#include "driver/gdev_driver.h"
#include "os/machine.h"

namespace hix::core
{

/** Plain Gdev user runtime (one per user process). */
class BaselineRuntime
{
  public:
    /**
     * @param mps_leader when non-null, run in pre-Volta MPS mode:
     *        share the leader's driver *and GPU context* (Section 4.5
     *        of the paper: MPS merges all user processes into a
     *        single GPU context), while keeping this user's own CPU
     *        core and timing actor.
     * @param gpu_index which GPU of the machine's pool this runtime
     *        drives (BARs, VRAM allocator, and timing resources are
     *        all per-device); ignored in MPS-follower mode, where the
     *        leader's device is shared.
     */
    BaselineRuntime(os::Machine *machine, std::string name,
                    std::uint64_t timing_scale = 1,
                    std::uint16_t cpu_index = 0,
                    BaselineRuntime *mps_leader = nullptr,
                    GpuContextId ctx_base = 0, int gpu_index = 0);

    /** Create the GPU context (Gdev task initialization). */
    Status init();

    /**
     * Create the GPU context ahead of init(), outside the recorded
     * window. The sharded multi-user runner uses this to reproduce
     * pre-Volta MPS follower semantics on a private machine: on a
     * shared machine only the MPS leader records CtxCreate and
     * followers join its context, so a follower shard creates its
     * (private) context during setup — before the trace is cleared —
     * and init() then records only the task-init op, keeping the
     * recorded window identical to the shared-machine run.
     */
    Status precreateContext();

    Result<Addr> memAlloc(std::uint64_t size);
    Status memFree(Addr gpu_va);

    /** cuMemcpyHtoD: plain DMA of plaintext from a pinned buffer. */
    Status memcpyHtoD(Addr dst_gpu_va, const Bytes &data);

    /** cuMemcpyDtoH. */
    Result<Bytes> memcpyDtoH(Addr src_gpu_va, std::uint64_t len);

    Result<gpu::KernelId> loadModule(const std::string &kernel_name);
    Status launchKernel(gpu::KernelId kernel,
                        const gpu::KernelArgs &args);

    Status close();

    GpuContextId gpuContext() const { return ctx_; }
    ProcessId pid() const { return pid_; }
    std::uint32_t actor() const { return actor_; }
    int gpuIndex() const { return gpu_index_; }
    driver::GdevDriver &gdev() { return *driver_; }

    /** The pinned staging buffer (exposed for attack demos). */
    const os::DmaBuffer &hostBuffer() const { return host_buf_; }

  private:
    Status ensureHostBuffer(std::uint64_t size);

    os::Machine *machine_;
    std::string name_;
    ProcessId pid_ = 0;
    std::uint32_t actor_ = 0;
    sim::ResourceId cpu_;
    std::shared_ptr<driver::GdevDriver> driver_;
    BaselineRuntime *mps_leader_ = nullptr;
    int gpu_index_ = 0;
    GpuContextId ctx_ = 0;
    os::DmaBuffer host_buf_;
    bool initialized_ = false;
    bool ctx_precreated_ = false;
};

}  // namespace hix::core

#endif  // HIX_HIX_BASELINE_RUNTIME_H_
