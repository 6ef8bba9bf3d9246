#include "pcie/root_complex.h"

#include <algorithm>

#include "common/byte_utils.h"
#include "common/logging.h"
#include "mem/phys_mem.h"

namespace hix::pcie
{

namespace
{

/** Vendor/device ids for the modelled root port (Intel IOH3420,
 * matching the QEMU device the paper's prototype modifies). */
constexpr std::uint16_t RootPortVendor = 0x8086;
constexpr std::uint16_t RootPortDevice = 0x3420;
constexpr std::uint32_t BridgeClassCode = 0x060400;

}  // namespace

RootPort::RootPort(int index)
    : index_(index),
      config_(HeaderType::Bridge, RootPortVendor, RootPortDevice,
              BridgeClassCode)
{
}

RootComplex::RootComplex(AddrRange mmio_window, mem::PhysicalBus *ram,
                         mem::Iommu *iommu)
    : mmio_window_(mmio_window), ram_(ram), iommu_(iommu)
{
}

Status
RootComplex::attachDevice(int port_index, PcieDevice *dev)
{
    if (enumerated_)
        return errFailedPrecondition(
            "hotplug after enumeration is not modelled");
    if (port_index < 0 || port_index > 31)
        return errInvalidArgument("bad root port index");
    for (auto &port : ports_)
        if (port->index() == port_index)
            return errAlreadyExists("root port already populated");
    auto port = std::make_unique<RootPort>(port_index);
    port->setDevice(dev);
    dev->setRootComplex(this);
    ports_.push_back(std::move(port));
    return Status::ok();
}

Status
RootComplex::enumerate()
{
    if (enumerated_)
        return errFailedPrecondition("already enumerated");

    // Assign addresses from the MMIO window, one 16MiB-aligned slab
    // per port so bridge windows stay simple.
    Addr cursor = mmio_window_.start();
    std::uint8_t next_bus = 1;

    std::sort(ports_.begin(), ports_.end(),
              [](const auto &a, const auto &b) {
                  return a->index() < b->index();
              });

    for (auto &port : ports_) {
        PcieDevice *dev = port->device();
        if (!dev)
            continue;

        const std::uint8_t bus = next_bus++;
        port->config().setBusNumbers(0, bus, bus);
        dev->setBdf(Bdf{bus, 0, 0});

        const Addr window_base = cursor;

        // Allocate apertures largest-first so natural alignment
        // wastes no window space (standard BIOS packing).
        std::vector<int> bars;
        for (int bar = 0; bar < NumBars; ++bar)
            if (dev->config().barSize(bar) != 0)
                bars.push_back(bar);
        std::sort(bars.begin(), bars.end(), [&](int a, int b) {
            return dev->config().barSize(a) > dev->config().barSize(b);
        });
        for (int bar : bars) {
            const std::uint64_t size = dev->config().barSize(bar);
            cursor = (cursor + size - 1) & ~(size - 1);
            HIX_RETURN_IF_ERROR(dev->config().write32(
                cfg::Bar0 + 4 * bar, static_cast<std::uint32_t>(cursor)));
            cursor += size;
        }
        const std::uint64_t rom_size = dev->config().expansionRomSize();
        if (rom_size != 0) {
            cursor = (cursor + rom_size - 1) & ~(rom_size - 1);
            HIX_RETURN_IF_ERROR(dev->config().write32(
                cfg::ExpansionRom,
                static_cast<std::uint32_t>(cursor) | 0x1));
            cursor += rom_size;
        }

        // Round the port window up to 1MiB granularity.
        cursor = (cursor + 0xfffff) & ~Addr(0xfffff);
        port->config().setMemoryWindow(window_base, cursor - 1);

        if (cursor > mmio_window_.end())
            return errResourceExhausted("MMIO window exhausted");
    }

    enumerated_ = true;
    return Status::ok();
}

RootPort *
RootComplex::portForBdf(const Bdf &bdf) const
{
    for (const auto &port : ports_) {
        // The root port itself lives on bus 0.
        if (bdf.bus == 0 && bdf.device == port->index() &&
            bdf.function == 0)
            return port.get();
        // Devices behind the port.
        if (port->device() && bdf.bus >= port->config().secondaryBus() &&
            bdf.bus <= port->config().subordinateBus())
            return port.get();
    }
    return nullptr;
}

PcieDevice *
RootComplex::deviceAt(const Bdf &bdf)
{
    RootPort *port = portForBdf(bdf);
    if (!port || !port->device())
        return nullptr;
    if (port->device()->bdf() == bdf)
        return port->device();
    return nullptr;
}

bool
RootComplex::isRealDevice(const Bdf &bdf) const
{
    RootPort *port = portForBdf(bdf);
    return port && port->device() && port->device()->bdf() == bdf;
}

Result<std::vector<AddrRange>>
RootComplex::deviceBarRanges(const Bdf &bdf) const
{
    RootPort *port = portForBdf(bdf);
    if (!port || !port->device() || !(port->device()->bdf() == bdf))
        return errNotFound("no device at " + bdf.toString());
    std::vector<AddrRange> ranges;
    const ConfigSpace &config = port->device()->config();
    for (int bar = 0; bar < NumBars; ++bar) {
        if (config.barSize(bar) != 0 && config.barBase(bar) != 0)
            ranges.emplace_back(config.barBase(bar), config.barSize(bar));
    }
    return ranges;
}

Status
RootComplex::routeTlp(const Tlp &tlp, Bytes *read_out)
{
    switch (tlp.kind) {
      case TlpKind::MemRead:
      case TlpKind::MemWrite:
        return routeMem(tlp, read_out);
      case TlpKind::CfgRead:
      case TlpKind::CfgWrite:
        return routeCfg(tlp, read_out);
    }
    return errInternal("unknown TLP kind");
}

Status
RootComplex::routeMem(const Tlp &tlp, Bytes *read_out)
{
    if (tlp.kind == TlpKind::MemRead) {
        read_out->resize(tlp.length);
        return routeMemRaw(tlp.addr, read_out->data(), nullptr,
                           tlp.length);
    }
    return routeMemRaw(tlp.addr, nullptr, tlp.data.data(),
                       tlp.data.size());
}

Status
RootComplex::routeMemRaw(Addr addr, std::uint8_t *read_data,
                         const std::uint8_t *write_data, std::size_t len)
{
    const bool is_read = read_data != nullptr;
    if (is_read)
        ++stats_.memReads;
    else
        ++stats_.memWrites;

    for (const auto &port : ports_) {
        PcieDevice *dev = port->device();
        if (!dev)
            continue;
        // The bridge only forwards addresses inside its window.
        if (addr < port->config().memoryWindowBase() ||
            addr > port->config().memoryWindowLimit())
            continue;

        std::uint64_t offset = 0;
        int bar = dev->barContaining(addr, &offset);
        if (bar >= 0) {
            if (is_read)
                return dev->mmioRead(bar, offset, read_data, len);
            return dev->mmioWrite(bar, offset, write_data, len);
        }
        if (dev->romContains(addr, &offset)) {
            if (!is_read)
                return errPermissionDenied("expansion ROM is read-only");
            const Bytes &rom = dev->expansionRomImage();
            for (std::size_t i = 0; i < len; ++i) {
                const std::uint64_t idx = offset + i;
                read_data[i] =
                    idx < rom.size() ? rom[idx] : std::uint8_t(0xff);
            }
            return Status::ok();
        }
    }
    ++stats_.unroutable;
    return errNotFound("memory TLP claims no BAR");
}

Status
RootComplex::routeCfg(const Tlp &tlp, Bytes *read_out)
{
    ConfigSpace *target = nullptr;
    RootPort *port = portForBdf(tlp.bdf);
    if (port) {
        if (tlp.bdf.bus == 0)
            target = &port->config();
        else if (port->device() && port->device()->bdf() == tlp.bdf)
            target = &port->device()->config();
    }
    if (!target) {
        ++stats_.unroutable;
        return errNotFound("config TLP to absent function " +
                           tlp.bdf.toString());
    }

    if (tlp.kind == TlpKind::CfgRead) {
        ++stats_.cfgReads;
        auto value = target->read32(tlp.reg);
        if (!value.isOk())
            return value.status();
        read_out->resize(4);
        storeLE32(read_out->data(), *value);
        return Status::ok();
    }

    ++stats_.cfgWrites;
    // HIX MMIO lockdown: discard writes that would alter routing
    // state anywhere on a locked path.
    if (isLocked(tlp.bdf) && target->isRoutingRegister(tlp.reg)) {
        // Optional Section 5.6 carve-out: sizing probes and writes
        // that restore the programmed value cannot move an aperture.
        const bool sizing_probe =
            sizing_exception_ && tlp.data.size() == 4 &&
            target->isHarmlessRoutingWrite(tlp.reg,
                                           loadLE32(tlp.data.data()));
        if (!sizing_probe) {
            ++stats_.lockdownDrops;
            return errLockdownViolation(
                "config write to routing register " +
                std::to_string(tlp.reg) + " of locked " +
                tlp.bdf.toString());
        }
    }
    if (tlp.data.size() != 4)
        return errInvalidArgument("config writes are 32-bit");
    return target->write32(tlp.reg, loadLE32(tlp.data.data()));
}

Result<std::uint32_t>
RootComplex::configRead(const Bdf &bdf, std::uint16_t reg)
{
    Bytes out;
    Status st = routeTlp(Tlp::cfgRead(bdf, reg), &out);
    if (!st.isOk())
        return st;
    return loadLE32(out.data());
}

Status
RootComplex::configWrite(const Bdf &bdf, std::uint16_t reg,
                         std::uint32_t value)
{
    return routeTlp(Tlp::cfgWrite(bdf, reg, value));
}

Status
RootComplex::lockPath(const Bdf &bdf)
{
    if (!isRealDevice(bdf))
        return errNotFound("lockPath: no real device at " +
                           bdf.toString());
    if (isLocked(bdf))
        return errAlreadyExists("path already locked");
    locked_endpoints_.push_back(bdf);
    return Status::ok();
}

void
RootComplex::unlockAll()
{
    locked_endpoints_.clear();
}

void
RootComplex::unlockPath(const Bdf &bdf)
{
    locked_endpoints_.erase(
        std::remove(locked_endpoints_.begin(), locked_endpoints_.end(),
                    bdf),
        locked_endpoints_.end());
}

bool
RootComplex::isLocked(const Bdf &bdf) const
{
    for (const Bdf &locked : locked_endpoints_) {
        if (locked == bdf)
            return true;
        // The root port on the locked path is frozen too.
        RootPort *port = portForBdf(locked);
        if (port && bdf == port->bdf())
            return true;
    }
    return false;
}

Result<crypto::Sha256Digest>
RootComplex::measurePath(const Bdf &bdf) const
{
    RootPort *port = portForBdf(bdf);
    if (!port || !port->device() || !(port->device()->bdf() == bdf))
        return errNotFound("measurePath: no device at " + bdf.toString());

    crypto::Sha256 h;
    auto fold32 = [&h](std::uint32_t v) {
        std::uint8_t b[4];
        storeLE32(b, v);
        h.update(b, 4);
    };

    // Endpoint routing registers: BARs + ROM BAR.
    const ConfigSpace &dev_config = port->device()->config();
    for (int bar = 0; bar < NumBars; ++bar) {
        auto v = dev_config.read32(cfg::Bar0 + 4 * bar);
        fold32(v.isOk() ? *v : 0);
    }
    {
        auto v = dev_config.read32(cfg::ExpansionRom);
        fold32(v.isOk() ? *v : 0);
    }

    // Bridge routing registers: bus numbers + memory window.
    const ConfigSpace &port_config = port->config();
    for (std::uint16_t reg :
         {cfg::BusNumbers, cfg::MemoryWindow,
          static_cast<std::uint16_t>(cfg::MemoryWindow + 4)}) {
        auto v = port_config.read32(reg);
        fold32(v.isOk() ? *v : 0);
    }
    return h.finalize();
}

Result<Addr>
RootComplex::translateDma(mem::IommuDomain domain, Addr addr) const
{
    if (!iommu_)
        return addr;
    return iommu_->translate(domain, addr);
}

mem::IommuDomain
RootComplex::dmaDomainOf(const Bdf &source) const
{
    const RootPort *port = portForBdf(source);
    return port ? static_cast<mem::IommuDomain>(port->index()) : 0;
}

// IOMMU page mappings are page-aligned on both sides, so the DMA
// helpers move each physically contiguous run of device pages over
// RAM once (mem::movePhysicalRuns), with the per-page fault and
// partial-copy semantics of a page-by-page loop.
Status
RootComplex::dmaRead(const Bdf &source, Addr addr, std::uint8_t *data,
                     std::size_t len)
{
    const mem::IommuDomain domain = dmaDomainOf(source);
    if (!ram_)
        return errUnavailable("no DMA path configured");
    if (mmio_window_.contains(addr))
        return errPermissionDenied(
            "peer-to-peer DMA is not supported by HIX");
    return mem::movePhysicalRuns(
        addr, len, [&](Addr a) { return translateDma(domain, a); },
        [&](Addr pa, std::uint64_t done, std::uint64_t n) {
            return ram_->readPages(pa, data + done, n);
        });
}

Status
RootComplex::dmaWrite(const Bdf &source, Addr addr,
                      const std::uint8_t *data, std::size_t len)
{
    const mem::IommuDomain domain = dmaDomainOf(source);
    if (!ram_)
        return errUnavailable("no DMA path configured");
    if (mmio_window_.contains(addr))
        return errPermissionDenied(
            "peer-to-peer DMA is not supported by HIX");
    return mem::movePhysicalRuns(
        addr, len, [&](Addr a) { return translateDma(domain, a); },
        [&](Addr pa, std::uint64_t done, std::uint64_t n) {
            return ram_->writePages(pa, data + done, n);
        });
}

Status
RootComplex::readAt(std::uint64_t offset, std::uint8_t *data,
                    std::size_t len)
{
    return routeMemRaw(mmio_window_.start() + offset, data, nullptr,
                       len);
}

Status
RootComplex::writeAt(std::uint64_t offset, const std::uint8_t *data,
                     std::size_t len)
{
    return routeMemRaw(mmio_window_.start() + offset, nullptr, data,
                       len);
}

}  // namespace hix::pcie
