#include "mem/iommu.h"

namespace hix::mem
{

Iommu::Iommu(std::size_t iotlb_capacity) : iotlb_(iotlb_capacity) {}

Status
Iommu::map(IommuDomain domain, Addr device_addr, Addr phys_addr)
{
    if (!pageAligned(device_addr) || !pageAligned(phys_addr))
        return errInvalidArgument("IOMMU map: unaligned address");
    auto [it, inserted] =
        table_.emplace(Key{domain, device_addr}, phys_addr);
    if (!inserted)
        return errAlreadyExists("device page already mapped");
    // No IOTLB action needed: misses are never cached, so an absent
    // page cannot have a stale cached translation.
    return Status::ok();
}

Status
Iommu::unmap(IommuDomain domain, Addr device_addr)
{
    const Addr dpage = pageBase(device_addr);
    if (table_.erase(Key{domain, dpage}) == 0)
        return errNotFound("device page not mapped");
    iotlb_.flushPage(domain, dpage);
    return Status::ok();
}

void
Iommu::overwrite(IommuDomain domain, Addr device_addr, Addr phys_addr)
{
    const Addr dpage = pageBase(device_addr);
    iotlb_.flushPage(domain, dpage);
    table_[Key{domain, dpage}] = pageBase(phys_addr);
}

Result<Addr>
Iommu::translate(IommuDomain domain, Addr device_addr) const
{
    if (!enabled_)
        return device_addr;
    const Addr dpage = pageBase(device_addr);
    if (const TlbEntry *hit =
            iotlb_.lookup(domain, InvalidEnclaveId, dpage)) {
        iotlb_.countHit();
        return hit->ppage + pageOffset(device_addr);
    }
    iotlb_.countMiss();
    auto it = table_.find(Key{domain, dpage});
    if (it == table_.end())
        return errAccessFault("IOMMU fault: device page not mapped");
    iotlb_.insert(
        TlbEntry{domain, InvalidEnclaveId, dpage, it->second, PermNone});
    return it->second + pageOffset(device_addr);
}

}  // namespace hix::mem
