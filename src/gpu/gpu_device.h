/**
 * @file
 * The GPU device model: a Fermi-class (GTX 580) PCIe endpoint with
 * 1.5 GiB device memory, a command FIFO driven through BAR0 MMIO, a
 * BAR1 device-memory aperture, two DMA copy engines, a compute engine
 * with registered kernels, per-context address spaces, built-in
 * Diffie-Hellman and OCB engines (HIX's in-GPU crypto kernels,
 * Section 4.4.2), a flashable GPU BIOS in the expansion ROM, and
 * memory scrubbing.
 *
 * The device is functional-first: commands execute eagerly and move
 * real bytes. Timing is exposed through CostRecords that the driver
 * drains into the platform trace; the record stream is the model's
 * timing oracle, not an architectural register.
 */

#ifndef HIX_GPU_GPU_DEVICE_H_
#define HIX_GPU_GPU_DEVICE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "common/units.h"
#include "crypto/ocb.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "gpu/gpu_context.h"
#include "gpu/gpu_perf.h"
#include "gpu/gpu_regs.h"
#include "gpu/kernel_registry.h"
#include "mem/phys_mem.h"
#include "pcie/device.h"
#include "sim/platform_config.h"

namespace hix::gpu
{

/** Timing record for one executed command. */
struct CostRecord
{
    GpuOp op = GpuOp::Nop;
    GpuEngine engine = GpuEngine::Control;
    GpuContextId ctx = ~GpuContextId(0);
    Tick duration = 0;
    std::uint64_t bytes = 0;
};

/** Geometry of the modelled board. */
struct GpuGeometry
{
    std::uint64_t vramSize = 1536 * MiB;      //!< GTX 580: 1.5 GiB
    std::uint64_t bar0Size = 16 * MiB;        //!< register space
    std::uint64_t bar1Size = 256 * MiB;       //!< VRAM aperture
    std::uint64_t romSize = 64 * KiB;         //!< GPU BIOS
    std::uint32_t numKeySlots = 64;           //!< session key slots
};

/** Counters for tests and benches. */
struct GpuDeviceStats
{
    std::uint64_t commands = 0;
    std::uint64_t kernels = 0;
    std::uint64_t copiesH2D = 0;
    std::uint64_t copiesD2H = 0;
    std::uint64_t bytesH2D = 0;
    std::uint64_t bytesD2H = 0;
    std::uint64_t cryptoKernels = 0;
    std::uint64_t macFailures = 0;
    std::uint64_t scrubbedBytes = 0;
    std::uint64_t resets = 0;
};

/**
 * The GPU. BAR0 = registers + command FIFO; BAR1 = movable window
 * into device memory.
 */
class GpuDevice : public pcie::PcieDevice
{
  public:
    GpuDevice(std::string name, const GpuGeometry &geometry,
              const GpuPerfModel &perf,
              const sim::PlatformConfig &timing,
              std::uint64_t seed = 0xc0ffee);

    // ----- PcieDevice -----------------------------------------------------
    Status mmioRead(int bar, std::uint64_t offset, std::uint8_t *data,
                    std::size_t len) override;
    Status mmioWrite(int bar, std::uint64_t offset,
                     const std::uint8_t *data, std::size_t len) override;

    // ----- Host-visible helpers ------------------------------------------
    /** The kernel registry (populated by workload setup code). */
    KernelRegistry &kernels() { return kernels_; }

    const GpuGeometry &geometry() const { return geometry_; }
    const GpuPerfModel &perf() const { return perf_; }
    const GpuDeviceStats &stats() const { return stats_; }

    /**
     * Drain the cost records of commands executed since the last
     * drain (timing oracle for the driver layer).
     */
    std::vector<CostRecord> drainCosts();

    /** Error message of the last failed command batch, if any. */
    const std::string &lastError() const { return last_error_; }

    /**
     * Replace the GPU BIOS image (attacker primitive: a privileged
     * adversary can flash the ROM before the GPU enclave starts).
     */
    void flashBios(Bytes image);

    /** SHA-256 of the current (genuine) factory BIOS. */
    const crypto::Sha256Digest &factoryBiosDigest() const
    {
        return factory_bios_digest_;
    }

    /**
     * Full device reset: destroy contexts, clear key slots, scrub
     * all touched VRAM. Also triggered by a write to reg::Reset.
     */
    void reset();

    /** Direct VRAM peek for tests (not reachable by modelled SW). */
    Status debugReadVram(Addr pa, std::uint8_t *data, std::size_t len);

    /** Number of live contexts. */
    std::size_t contextCount() const { return contexts_.size(); }

    /** True when key slot @p slot currently holds a session key. */
    bool keySlotActive(std::uint32_t slot) const;

    /** VRAM pages materialised by this device instance. */
    std::size_t vramResidentPages() const
    {
        return vram_.residentPages();
    }

  private:
    struct KeySlot
    {
        crypto::X25519KeyPair pair;
        bool have_pair = false;
        std::optional<crypto::AesKey> key;
        std::unique_ptr<crypto::Ocb> ocb;
    };

    /** Execute all queued FIFO words as commands. */
    void runDoorbell();
    Status execCommand(const std::vector<std::uint64_t> &words,
                       std::size_t &cursor);
    Result<GpuContext *> contextOf(std::uint64_t id);
    /** True when BAR1 bytes [offset, offset + len) of the current
     * window lie inside VRAM (overflow-safe). */
    bool bar1InVram(std::uint64_t offset, std::size_t len) const;
    void record(GpuOp op, GpuEngine engine, GpuContextId ctx,
                Tick duration, std::uint64_t bytes);
    Bytes makeFactoryBios() const;

    GpuGeometry geometry_;
    GpuPerfModel perf_;
    sim::PlatformConfig timing_;
    Rng rng_;

    mem::PhysMem vram_;
    std::map<GpuContextId, GpuContext> contexts_;
    KernelRegistry kernels_;
    std::vector<KeySlot> key_slots_;

    // Register state.
    std::vector<std::uint32_t> fifo_;
    std::uint32_t cmd_status_ = 0;
    std::uint32_t fence_value_ = 0;
    Addr window_base_ = 0;

    /** Reused OCB command scratch (steady state allocates nothing). */
    Bytes crypto_in_;
    Bytes crypto_out_;

    /**
     * Reused copy-engine staging buffer: H2D/D2H stream through it in
     * bounded chunks instead of allocating a transfer-sized buffer
     * per command (grow-once, steady state allocates nothing).
     */
    Bytes dma_scratch_;

    std::vector<CostRecord> costs_;
    GpuDeviceStats stats_;
    std::string last_error_;
    crypto::Sha256Digest factory_bios_digest_{};
};

}  // namespace hix::gpu

#endif  // HIX_GPU_GPU_DEVICE_H_
