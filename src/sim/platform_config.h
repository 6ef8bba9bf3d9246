/**
 * @file
 * Calibrated timing parameters for the modelled platform.
 *
 * The numbers target the paper's testbed envelope (Table 3): an Intel
 * Core i7-6700 with SGX driving an NVIDIA GeForce GTX 580 over PCIe
 * 2.0 x16, running the Gdev open-source CUDA stack. Absolute values
 * are calibrated so that the *shape* of the evaluation (who wins, by
 * what factor, where crossovers fall) reproduces Figures 6-9; see
 * EXPERIMENTS.md for paper-vs-measured numbers.
 */

#ifndef HIX_SIM_PLATFORM_CONFIG_H_
#define HIX_SIM_PLATFORM_CONFIG_H_

#include <cstdint>

#include "common/types.h"
#include "common/units.h"

namespace hix::sim
{

/** All tunable timing/behaviour knobs of the modelled platform. */
struct PlatformConfig
{
    // ----- PCIe / data movement -------------------------------------
    /** DMA bandwidth host-to-device (PCIe 2.0 x16 effective). */
    std::uint64_t dmaHtoDBps = 5200ull * 1000 * 1000;
    /** DMA bandwidth device-to-host. */
    std::uint64_t dmaDtoHBps = 5000ull * 1000 * 1000;
    /** Programmed-I/O (MMIO window) copy bandwidth. */
    std::uint64_t mmioPioBps = 800ull * 1000 * 1000;
    /** Latency of a single MMIO register read (PCIe round trip). */
    Tick mmioReadLatency = 1 * US;
    /** Latency of a single posted MMIO register write. */
    Tick mmioWriteLatency = 250 * NS;
    /** Fixed cost to start a DMA transfer (descriptor + doorbell). */
    Tick dmaSetupLatency = 4 * US;

    // ----- Cryptography ----------------------------------------------
    /** OCB-AES-128 throughput of enclave CPU code (SGX-SSL, AES-NI). */
    std::uint64_t cpuOcbBps = 1700ull * 1000 * 1000;
    /**
     * Effective throughput of the in-GPU OCB kernel on pipeline-chunk
     * inputs (a few MiB per launch underutilizes the SM array, so
     * this sits well below memory bandwidth — the paper's
     * "resource underutilization for small data cryptography").
     */
    std::uint64_t gpuOcbBps = 12ull * 1000 * 1000 * 1000;
    /** Plain memcpy bandwidth of the CPU (for the naive double copy). */
    std::uint64_t cpuMemcpyBps = 8ull * 1000 * 1000 * 1000;

    // ----- GPU --------------------------------------------------------
    /** Fixed cost of launching any GPU kernel (driver + HW). */
    Tick gpuKernelLaunch = 8 * US;
    /**
     * GPU context switch cost: Fermi full state swap plus the
     * shared/global-memory cleansing the HIX runtime performs so a
     * context switch cannot leak data (Section 4.5).
     */
    Tick gpuCtxSwitch = 120 * US;
    /** GPU device-memory scrub bandwidth (used on free/teardown). */
    std::uint64_t gpuScrubBps = 96ull * 1000 * 1000 * 1000;
    /**
     * Number of concurrently schedulable GPU contexts. 1 models the
     * paper's Fermi platform (one resident context, switches between
     * clients). >1 models the Volta-style isolated simultaneous
     * execution the paper's Section 4.5 anticipates as future work:
     * each context gets its own execution queue and context switching
     * disappears.
     */
    std::uint32_t gpuConcurrentContexts = 1;
    /**
     * Number of per-context DMA channels per copy-engine direction.
     * 1 models the Fermi platform (one global copy engine per
     * direction, every context serializes on it — bit-identical to
     * the model before this knob existed). >1 models Volta-style
     * per-context protected DMA channels: context c of device d lands
     * on channel d * gpuDmaChannels + c % gpuDmaChannels, exactly the
     * device-blocked layout the compute queues use, so concurrent
     * contexts stop contending on copies.
     * Must be a power of two so the canonical context-id blocks
     * (DeviceCtxStride, ShardMgmtCtx) stay congruent at record time.
     */
    std::uint32_t gpuDmaChannels = 1;
    /**
     * Number of modelled GPU-enclave dispatch lanes (logical CPU
     * workers) per device. 1 reproduces the paper's single
     * GPU-enclave thread: every session's control/IPC work serializes
     * on one GpuEnclaveCpu resource. >1 hashes sessions across lanes
     * (session context c of device d dispatches on lane
     * d * gpuEnclaveLanes + c % gpuEnclaveLanes) and moves the DH
     * handshake onto the session's own context, so sessions bound to
     * the same device stop serializing on enclave dispatch. Power of
     * two, like gpuDmaChannels.
     */
    std::uint32_t gpuEnclaveLanes = 1;

    // ----- Software stack ---------------------------------------------
    /** One inter-enclave message-queue hop (enqueue+wakeup+dequeue). */
    Tick ipcMessageLatency = 3 * US;
    /** Per-request handling inside the GPU enclave (decode, checks). */
    Tick gpuEnclaveDispatch = 2 * US;
    /**
     * Baseline Gdev per-task init: context creation plus loading the
     * cubin module from the file system, which dominates small-app
     * runtime in the original Gdev evaluation.
     */
    Tick gdevTaskInit = 15 * MS;
    /**
     * HIX per-task init as seen by a user: the GPU enclave holds the
     * device open and its modules warm, so per-task setup is cheaper
     * than baseline Gdev (the paper's Section 5.3.2 observation that
     * HS/LUD/NN run slightly faster under HIX).
     */
    Tick hixTaskInit = 1200 * US;
    /** One-time local attestation + Diffie-Hellman session setup. */
    Tick sessionSetup = 1500 * US;

    // ----- HIX data path ------------------------------------------------
    /** Chunk size for the pipelined encrypt/transfer data path. */
    std::uint64_t pipelineChunkBytes = 4 * MiB;

    /** Defaults tuned for the paper's platform. */
    static const PlatformConfig &paper();
};

}  // namespace hix::sim

#endif  // HIX_SIM_PLATFORM_CONFIG_H_
