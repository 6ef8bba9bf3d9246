/**
 * @file
 * PCIe root complex: enumeration (the BIOS role), TLP routing from
 * CPU MMIO accesses down to endpoint BARs, DMA routing upstream
 * through the IOMMU, and the HIX MMIO lockdown filter (Section 4.3.2
 * of the paper) that discards configuration writes to routing
 * registers on a locked device path.
 */

#ifndef HIX_PCIE_ROOT_COMPLEX_H_
#define HIX_PCIE_ROOT_COMPLEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/addr_range.h"
#include "common/status.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "mem/iommu.h"
#include "mem/phys_bus.h"
#include "pcie/config_space.h"
#include "pcie/device.h"
#include "pcie/tlp.h"

namespace hix::pcie
{

/**
 * A root port: the type 1 bridge between the root complex and one
 * endpoint slot.
 */
class RootPort
{
  public:
    explicit RootPort(int index);

    ConfigSpace &config() { return config_; }
    const ConfigSpace &config() const { return config_; }

    PcieDevice *device() { return device_; }
    const PcieDevice *device() const { return device_; }
    void setDevice(PcieDevice *dev) { device_ = dev; }

    int index() const { return index_; }
    Bdf bdf() const { return Bdf{0, static_cast<std::uint8_t>(index_), 0}; }

  private:
    int index_;
    ConfigSpace config_;
    PcieDevice *device_ = nullptr;
};

/** Statistics the lockdown filter and router keep. */
struct RootComplexStats
{
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t cfgReads = 0;
    std::uint64_t cfgWrites = 0;
    std::uint64_t lockdownDrops = 0;
    std::uint64_t unroutable = 0;
};

/**
 * The root complex. It is also a BusTarget: the system's MMIO window
 * is claimed on the physical bus, so CPU accesses that translate into
 * the window become memory TLPs routed down the PCIe tree.
 */
class RootComplex : public mem::BusTarget
{
  public:
    /**
     * @param mmio_window physical address range reserved for PCIe
     *        MMIO (set up by the BIOS in the system address map).
     * @param ram RAM-side bus for DMA, or nullptr if DMA unused.
     * @param iommu optional IOMMU on the DMA path.
     */
    RootComplex(AddrRange mmio_window, mem::PhysicalBus *ram,
                mem::Iommu *iommu);

    /** Plug @p dev into root port @p port_index (creating the port). */
    Status attachDevice(int port_index, PcieDevice *dev);

    /**
     * Enumerate the tree: assign bus numbers and BDFs, size all BARs
     * and expansion ROMs, assign addresses inside the MMIO window,
     * and program bridge forwarding windows. Mirrors what the BIOS
     * does at boot (Section 2.2 of the paper).
     */
    Status enumerate();

    // ----- TLP entry point -------------------------------------------
    /** Route one TLP; reads return data via @p read_out. */
    Status routeTlp(const Tlp &tlp, Bytes *read_out = nullptr);

    // ----- Config access convenience -----------------------------------
    Result<std::uint32_t> configRead(const Bdf &bdf, std::uint16_t reg);
    Status configWrite(const Bdf &bdf, std::uint16_t reg,
                       std::uint32_t value);

    // ----- MMIO lockdown (HIX extension) --------------------------------
    /**
     * Freeze MMIO routing for the path from the root complex to
     * @p bdf: subsequent config writes to routing registers of the
     * endpoint, its root port, or the root complex itself are
     * discarded. Returns NotFound for a BDF that is not a real
     * enumerated device (defeating GPU emulation attacks).
     */
    Status lockPath(const Bdf &bdf);

    /** Release the lockdown (only the platform reset uses this). */
    void unlockAll();

    /**
     * Release the lockdown for one endpoint path (graceful GPU
     * enclave termination). No-op when the path is not locked.
     */
    void unlockPath(const Bdf &bdf);

    /** True when @p bdf lies on a locked path. */
    bool isLocked(const Bdf &bdf) const;

    /**
     * Section 5.6 sizing exception: when enabled, the lockdown still
     * accepts the all-ones BAR sizing probe (which only latches the
     * size-readback state and cannot move the aperture), so generic
     * PCI software keeps working. Actual address rewrites remain
     * blocked. Off by default, matching the paper's prototype.
     */
    void setSizingProbeException(bool enabled)
    {
        sizing_exception_ = enabled;
    }

    /**
     * Measurement of all routing-relevant config registers on the
     * path to @p bdf (BARs, ROM BAR, bridge windows, bus numbers) —
     * folded into the GPU enclave measurement per Section 4.3.2.
     */
    Result<crypto::Sha256Digest> measurePath(const Bdf &bdf) const;

    /**
     * True when @p bdf names a real, enumerated hardware device.
     * EGCREATE uses this to reject software-emulated GPUs
     * (Section 5.5, attack (6)).
     */
    bool isRealDevice(const Bdf &bdf) const;

    /** Find the attached device with BDF @p bdf. */
    PcieDevice *deviceAt(const Bdf &bdf);

    /** MMIO ranges (BAR apertures) of a device after enumeration. */
    Result<std::vector<AddrRange>> deviceBarRanges(const Bdf &bdf) const;

    // ----- DMA (device -> system memory) --------------------------------
    /**
     * DMA read from system memory on behalf of @p source. The
     * requester's identity selects the IOMMU protection domain
     * (domain = root-port index), so a device can only resolve
     * through its own domain's table. The identity-less overloads
     * keep the legacy single-device behavior: they run in domain 0,
     * which is the lone GPU's domain on a one-GPU machine. HIX has
     * no peer-to-peer DMA: a page that translates into the MMIO
     * window is PermissionDenied, after the pages before it moved.
     */
    Status dmaRead(const Bdf &source, Addr addr, std::uint8_t *data,
                   std::size_t len);
    Status dmaRead(Addr addr, std::uint8_t *data, std::size_t len)
    {
        return dmaRead(Bdf{}, addr, data, len);
    }

    /** DMA write to system memory on behalf of @p source. */
    Status dmaWrite(const Bdf &source, Addr addr,
                    const std::uint8_t *data, std::size_t len);
    Status dmaWrite(Addr addr, const std::uint8_t *data, std::size_t len)
    {
        return dmaWrite(Bdf{}, addr, data, len);
    }

    /** IOMMU protection domain of a DMA requester: the index of the
     * root port it sits behind (0 when the BDF is unknown). */
    mem::IommuDomain dmaDomainOf(const Bdf &source) const;

    // ----- BusTarget (CPU-side MMIO window) ------------------------------
    std::string targetName() const override { return "pcie_root_complex"; }
    Status readAt(std::uint64_t offset, std::uint8_t *data,
                  std::size_t len) override;
    Status writeAt(std::uint64_t offset, const std::uint8_t *data,
                   std::size_t len) override;

    const AddrRange &mmioWindow() const { return mmio_window_; }
    const RootComplexStats &stats() const { return stats_; }

    const std::vector<std::unique_ptr<RootPort>> &ports() const
    {
        return ports_;
    }

  private:
    RootPort *portForBdf(const Bdf &bdf) const;
    Status routeMem(const Tlp &tlp, Bytes *read_out);
    Status routeCfg(const Tlp &tlp, Bytes *read_out);
    /**
     * Raw-pointer memory routing shared by routeMem and the
     * BusTarget entry points, so CPU MMIO accesses need no Bytes
     * allocation or double copy. Exactly one of @p read_data /
     * @p write_data is non-null.
     */
    Status routeMemRaw(Addr addr, std::uint8_t *read_data,
                       const std::uint8_t *write_data, std::size_t len);
    /** IOMMU translation of one DMA page (identity without IOMMU);
     * PermissionDenied when the page lands in the MMIO window. */
    Result<Addr> translateDma(mem::IommuDomain domain, Addr addr) const;

    AddrRange mmio_window_;
    mem::PhysicalBus *ram_;
    mem::Iommu *iommu_;
    std::vector<std::unique_ptr<RootPort>> ports_;
    std::vector<Bdf> locked_endpoints_;
    bool sizing_exception_ = false;
    bool enumerated_ = false;
    RootComplexStats stats_;
};

}  // namespace hix::pcie

#endif  // HIX_PCIE_ROOT_COMPLEX_H_
