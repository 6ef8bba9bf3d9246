/**
 * @file
 * Base class for PCIe endpoint devices (type 0 functions). Concrete
 * devices (the GPU model) implement BAR-relative MMIO handlers and
 * may issue DMA upstream through the root complex.
 */

#ifndef HIX_PCIE_DEVICE_H_
#define HIX_PCIE_DEVICE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/types.h"
#include "pcie/config_space.h"
#include "pcie/tlp.h"

namespace hix::pcie
{

class RootComplex;

/** A PCIe endpoint with config space, BARs, and an expansion ROM. */
class PcieDevice
{
  public:
    PcieDevice(std::string name, std::uint16_t vendor_id,
               std::uint16_t device_id, std::uint32_t class_code);
    virtual ~PcieDevice() = default;

    const std::string &name() const { return name_; }
    ConfigSpace &config() { return config_; }
    const ConfigSpace &config() const { return config_; }

    /** BDF assigned during enumeration. */
    const Bdf &bdf() const { return bdf_; }
    void setBdf(const Bdf &bdf) { bdf_ = bdf; }

    /** Set by the root complex when the device is attached. */
    void setRootComplex(RootComplex *rc) { rc_ = rc; }
    RootComplex *rootComplex() { return rc_; }

    /** Expansion ROM (device BIOS) image; empty when none. */
    const Bytes &expansionRomImage() const;
    void setExpansionRomImage(Bytes image);
    /**
     * Install the ROM as a shared immutable buffer. The image never
     * changes after a flash, so devices built from the BIOS cache
     * share one allocation instead of copying 64 KiB each.
     */
    void setExpansionRomImage(std::shared_ptr<const Bytes> image)
    {
        rom_image_ = std::move(image);
    }

    /**
     * Handle an MMIO read at @p offset within BAR @p bar.
     */
    virtual Status mmioRead(int bar, std::uint64_t offset,
                            std::uint8_t *data, std::size_t len) = 0;

    /** Handle an MMIO write at @p offset within BAR @p bar. */
    virtual Status mmioWrite(int bar, std::uint64_t offset,
                             const std::uint8_t *data,
                             std::size_t len) = 0;

    /**
     * Which BAR (if any) claims physical address @p addr given the
     * currently programmed BAR bases; -1 when unclaimed.
     */
    int barContaining(Addr addr, std::uint64_t *offset_out) const;

    /** True when @p addr falls in the enabled expansion ROM window. */
    bool romContains(Addr addr, std::uint64_t *offset_out) const;

  private:
    std::string name_;
    ConfigSpace config_;
    Bdf bdf_;
    RootComplex *rc_ = nullptr;
    std::shared_ptr<const Bytes> rom_image_;
};

}  // namespace hix::pcie

#endif  // HIX_PCIE_DEVICE_H_
