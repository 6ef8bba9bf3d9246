/**
 * @file
 * PCI configuration space (type 0 endpoint / type 1 bridge headers)
 * with standard BAR semantics including the all-ones sizing probe
 * (PCI Local Bus Specification 3.0, Section 6.2.5.1) — the probe the
 * paper's Section 5.6 notes conflicts with MMIO lockdown.
 */

#ifndef HIX_PCIE_CONFIG_SPACE_H_
#define HIX_PCIE_CONFIG_SPACE_H_

#include <array>
#include <cstdint>

#include "common/status.h"
#include "common/types.h"

namespace hix::pcie
{

/** Standard config register offsets used by the model. */
namespace cfg
{
inline constexpr std::uint16_t VendorId = 0x00;
inline constexpr std::uint16_t DeviceId = 0x02;
inline constexpr std::uint16_t Command = 0x04;
inline constexpr std::uint16_t Status = 0x06;
inline constexpr std::uint16_t ClassCode = 0x08;
inline constexpr std::uint16_t HeaderType = 0x0e;
inline constexpr std::uint16_t Bar0 = 0x10;
/** Type 1 (bridge): primary/secondary/subordinate bus numbers. */
inline constexpr std::uint16_t BusNumbers = 0x18;
/** Type 1 (bridge): non-prefetchable memory window base/limit. */
inline constexpr std::uint16_t MemoryWindow = 0x20;
/** Type 0: expansion ROM base address register. */
inline constexpr std::uint16_t ExpansionRom = 0x30;
/** Type 1: expansion ROM BAR lives at 0x38 on bridges. */
inline constexpr std::uint16_t BridgeExpansionRom = 0x38;
}  // namespace cfg

/** Number of 32-bit BARs in a type 0 header. */
inline constexpr int NumBars = 6;

/** Header types. */
enum class HeaderType : std::uint8_t
{
    Endpoint = 0,  //!< type 0
    Bridge = 1,    //!< type 1
};

/**
 * 256-byte configuration space with BAR size masks and sizing-probe
 * state. Registers not modelled read as stored bytes.
 */
class ConfigSpace
{
  public:
    ConfigSpace(HeaderType type, std::uint16_t vendor_id,
                std::uint16_t device_id, std::uint32_t class_code);

    std::uint16_t vendorId() const;
    std::uint16_t deviceId() const;

    /**
     * Declare BAR @p index as a memory BAR of @p size bytes (power
     * of two). Must be called before enumeration.
     */
    Status declareBar(int index, std::uint64_t size);

    /** Declare the expansion ROM BAR with @p size bytes. */
    Status declareExpansionRom(std::uint64_t size);

    /** Size declared for BAR @p index (0 when absent). */
    std::uint64_t barSize(int index) const;
    std::uint64_t expansionRomSize() const { return rom_size_; }

    /** Current base address programmed into BAR @p index. */
    Addr barBase(int index) const;
    Addr expansionRomBase() const;
    /** ROM enable bit (bit 0 of the ROM BAR). */
    bool expansionRomEnabled() const;

    /** 32-bit config read at @p reg (must be 4-byte aligned). */
    Result<std::uint32_t> read32(std::uint16_t reg) const;

    /** 32-bit config write; implements BAR/ROM sizing semantics. */
    Status write32(std::uint16_t reg, std::uint32_t value);

    // ----- Bridge (type 1) helpers ------------------------------------
    void setBusNumbers(std::uint8_t primary, std::uint8_t secondary,
                       std::uint8_t subordinate);
    std::uint8_t secondaryBus() const;
    std::uint8_t subordinateBus() const;

    /** Program the bridge's memory forwarding window. */
    void setMemoryWindow(Addr base, Addr limit);
    Addr memoryWindowBase() const;
    Addr memoryWindowLimit() const;

    /**
     * True when @p reg (a 32-bit register offset) holds MMIO routing
     * state — a BAR, the expansion ROM BAR, bridge bus numbers, or
     * the bridge memory window. These are the registers the MMIO
     * lockdown freezes.
     */
    bool isRoutingRegister(std::uint16_t reg) const;

    /**
     * True when writing @p value to routing register @p reg cannot
     * change routing: the all-ones sizing probe, or a write that
     * restores the currently programmed value (the second half of
     * the sizing sequence). Supports the Section 5.6 lockdown
     * exception.
     */
    bool isHarmlessRoutingWrite(std::uint16_t reg,
                                std::uint32_t value) const;

  private:
    HeaderType type_;
    std::array<std::uint8_t, 256> bytes_{};
    std::array<std::uint64_t, NumBars> bar_sizes_{};
    std::array<bool, NumBars> bar_probe_{};
    std::uint64_t rom_size_ = 0;
    bool rom_probe_ = false;

    std::uint16_t romReg() const;
};

}  // namespace hix::pcie

#endif  // HIX_PCIE_CONFIG_SPACE_H_
