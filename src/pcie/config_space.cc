#include "pcie/config_space.h"

#include "common/byte_utils.h"

namespace hix::pcie
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

}  // namespace

ConfigSpace::ConfigSpace(HeaderType type, std::uint16_t vendor_id,
                         std::uint16_t device_id,
                         std::uint32_t class_code)
    : type_(type)
{
    bytes_[cfg::VendorId] = static_cast<std::uint8_t>(vendor_id);
    bytes_[cfg::VendorId + 1] = static_cast<std::uint8_t>(vendor_id >> 8);
    bytes_[cfg::DeviceId] = static_cast<std::uint8_t>(device_id);
    bytes_[cfg::DeviceId + 1] = static_cast<std::uint8_t>(device_id >> 8);
    // Class code occupies bytes 0x09..0x0b.
    bytes_[cfg::ClassCode + 1] = static_cast<std::uint8_t>(class_code);
    bytes_[cfg::ClassCode + 2] =
        static_cast<std::uint8_t>(class_code >> 8);
    bytes_[cfg::ClassCode + 3] =
        static_cast<std::uint8_t>(class_code >> 16);
    bytes_[cfg::HeaderType] =
        type == HeaderType::Bridge ? 0x01 : 0x00;
}

std::uint16_t
ConfigSpace::vendorId() const
{
    return static_cast<std::uint16_t>(bytes_[cfg::VendorId] |
                                      (bytes_[cfg::VendorId + 1] << 8));
}

std::uint16_t
ConfigSpace::deviceId() const
{
    return static_cast<std::uint16_t>(bytes_[cfg::DeviceId] |
                                      (bytes_[cfg::DeviceId + 1] << 8));
}

std::uint16_t
ConfigSpace::romReg() const
{
    return type_ == HeaderType::Bridge ? cfg::BridgeExpansionRom
                                       : cfg::ExpansionRom;
}

Status
ConfigSpace::declareBar(int index, std::uint64_t size)
{
    if (index < 0 || index >= NumBars)
        return errInvalidArgument("BAR index out of range");
    if (type_ == HeaderType::Bridge && index >= 2)
        return errInvalidArgument("bridges have only BAR0/BAR1");
    if (!isPow2(size) || size < 16)
        return errInvalidArgument("BAR size must be a power of two >= 16");
    bar_sizes_[index] = size;
    return Status::ok();
}

Status
ConfigSpace::declareExpansionRom(std::uint64_t size)
{
    if (!isPow2(size) || size < 2048)
        return errInvalidArgument("ROM size must be a power of two >= 2KiB");
    rom_size_ = size;
    return Status::ok();
}

std::uint64_t
ConfigSpace::barSize(int index) const
{
    if (index < 0 || index >= NumBars)
        return 0;
    return bar_sizes_[index];
}

Addr
ConfigSpace::barBase(int index) const
{
    if (index < 0 || index >= NumBars || bar_sizes_[index] == 0)
        return 0;
    const std::uint32_t raw = loadLE32(&bytes_[cfg::Bar0 + 4 * index]);
    return raw & ~0xfull;  // strip memory-BAR flag bits
}

Addr
ConfigSpace::expansionRomBase() const
{
    if (rom_size_ == 0)
        return 0;
    const std::uint32_t raw = loadLE32(&bytes_[romReg()]);
    return raw & ~0x7ffull;
}

bool
ConfigSpace::expansionRomEnabled() const
{
    if (rom_size_ == 0)
        return false;
    return (bytes_[romReg()] & 0x01) != 0;
}

Result<std::uint32_t>
ConfigSpace::read32(std::uint16_t reg) const
{
    if (reg % 4 != 0 || std::size_t(reg) + 4 > bytes_.size())
        return errInvalidArgument("bad config register offset");

    // BAR sizing probe: after an all-ones write, the BAR reads back
    // the size mask.
    if (reg >= cfg::Bar0 && reg < cfg::Bar0 + 4 * NumBars) {
        const int index = (reg - cfg::Bar0) / 4;
        if (bar_probe_[index]) {
            if (bar_sizes_[index] == 0)
                return 0u;  // unimplemented BAR reads zero
            return static_cast<std::uint32_t>(
                ~(bar_sizes_[index] - 1));
        }
    }
    if (reg == romReg() && rom_probe_) {
        if (rom_size_ == 0)
            return 0u;
        return static_cast<std::uint32_t>(~(rom_size_ - 1)) & ~0x7ffu;
    }
    return loadLE32(&bytes_[reg]);
}

Status
ConfigSpace::write32(std::uint16_t reg, std::uint32_t value)
{
    if (reg % 4 != 0 || std::size_t(reg) + 4 > bytes_.size())
        return errInvalidArgument("bad config register offset");

    if (reg >= cfg::Bar0 && reg < cfg::Bar0 + 4 * NumBars) {
        const int index = (reg - cfg::Bar0) / 4;
        if (type_ == HeaderType::Bridge && index >= 2)
            return Status::ok();  // reserved on bridges; ignore
        if (value == 0xffffffffu) {
            bar_probe_[index] = true;
            return Status::ok();
        }
        bar_probe_[index] = false;
        if (bar_sizes_[index] == 0)
            return Status::ok();  // unimplemented BAR: writes ignored
        // Address bits align naturally to the BAR size.
        const std::uint32_t mask =
            static_cast<std::uint32_t>(~(bar_sizes_[index] - 1));
        storeLE32(&bytes_[reg], value & mask);
        return Status::ok();
    }
    if (reg == romReg()) {
        if (value == 0xfffff800u || value == 0xffffffffu) {
            rom_probe_ = true;
            return Status::ok();
        }
        rom_probe_ = false;
        if (rom_size_ == 0)
            return Status::ok();
        const std::uint32_t addr_mask =
            static_cast<std::uint32_t>(~(rom_size_ - 1)) & ~0x7ffu;
        storeLE32(&bytes_[reg],
                  (value & addr_mask) | (value & 0x1));
        return Status::ok();
    }
    storeLE32(&bytes_[reg], value);
    return Status::ok();
}

void
ConfigSpace::setBusNumbers(std::uint8_t primary, std::uint8_t secondary,
                           std::uint8_t subordinate)
{
    bytes_[cfg::BusNumbers] = primary;
    bytes_[cfg::BusNumbers + 1] = secondary;
    bytes_[cfg::BusNumbers + 2] = subordinate;
}

std::uint8_t
ConfigSpace::secondaryBus() const
{
    return bytes_[cfg::BusNumbers + 1];
}

std::uint8_t
ConfigSpace::subordinateBus() const
{
    return bytes_[cfg::BusNumbers + 2];
}

void
ConfigSpace::setMemoryWindow(Addr base, Addr limit)
{
    // Stored as 1MiB-aligned 16-bit fields like real type 1 headers.
    const std::uint16_t base_field =
        static_cast<std::uint16_t>((base >> 16) & 0xfff0);
    const std::uint16_t limit_field =
        static_cast<std::uint16_t>((limit >> 16) & 0xfff0);
    bytes_[cfg::MemoryWindow] = static_cast<std::uint8_t>(base_field);
    bytes_[cfg::MemoryWindow + 1] =
        static_cast<std::uint8_t>(base_field >> 8);
    bytes_[cfg::MemoryWindow + 2] =
        static_cast<std::uint8_t>(limit_field);
    bytes_[cfg::MemoryWindow + 3] =
        static_cast<std::uint8_t>(limit_field >> 8);
}

Addr
ConfigSpace::memoryWindowBase() const
{
    const std::uint16_t field = static_cast<std::uint16_t>(
        bytes_[cfg::MemoryWindow] | (bytes_[cfg::MemoryWindow + 1] << 8));
    return static_cast<Addr>(field & 0xfff0) << 16;
}

Addr
ConfigSpace::memoryWindowLimit() const
{
    const std::uint16_t field = static_cast<std::uint16_t>(
        bytes_[cfg::MemoryWindow + 2] |
        (bytes_[cfg::MemoryWindow + 3] << 8));
    // The limit covers the full last 1MiB block.
    return (static_cast<Addr>(field & 0xfff0) << 16) | 0xfffff;
}

bool
ConfigSpace::isHarmlessRoutingWrite(std::uint16_t reg,
                                    std::uint32_t value) const
{
    if (reg % 4 != 0 || std::size_t(reg) + 4 > bytes_.size())
        return false;
    if (value == 0xffffffffu)
        return true;  // sizing probe: readback state only
    if (reg == romReg() && value == 0xfffff800u)
        return true;  // ROM sizing probe variant
    // Restoring the stored value (address bits unchanged).
    return loadLE32(&bytes_[reg]) == value;
}

bool
ConfigSpace::isRoutingRegister(std::uint16_t reg) const
{
    if (reg == romReg())
        return true;
    if (type_ == HeaderType::Bridge) {
        // Bridges have only BAR0/BAR1; 0x18..0x27 hold bus numbers
        // and forwarding windows, all of which steer routing.
        return reg == cfg::Bar0 || reg == cfg::Bar0 + 4 ||
               reg == cfg::BusNumbers || reg == cfg::MemoryWindow ||
               reg == cfg::MemoryWindow + 4;
    }
    return reg >= cfg::Bar0 && reg < cfg::Bar0 + 4 * NumBars;
}

}  // namespace hix::pcie
