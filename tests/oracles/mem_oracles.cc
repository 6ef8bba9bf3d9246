#include "oracles/mem_oracles.h"

#include <algorithm>

namespace hix::mem
{

TlbReference::TlbReference(std::size_t capacity, std::size_t ways_hint)
    : geom_(TlbGeometry::forCapacity(capacity, ways_hint))
{
}

const TlbEntry *
TlbReference::lookup(ProcessId pid, EnclaveId enclave, Addr vpage) const
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->pid == pid && it->enclave == enclave &&
            it->vpage == vpage) {
            // Splice to the back: list order is touch recency.
            entries_.splice(entries_.end(), entries_, it);
            return &entries_.back();
        }
    }
    return nullptr;
}

void
TlbReference::insert(const TlbEntry &entry)
{
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->pid == entry.pid && it->enclave == entry.enclave &&
            it->vpage == entry.vpage) {
            entries_.erase(it);
            entries_.push_back(entry);
            return;
        }
    }
    const std::size_t set = geom_.setIndex(entry.pid, entry.vpage);
    std::size_t in_set = 0;
    for (const TlbEntry &e : entries_)
        if (geom_.setIndex(e.pid, e.vpage) == set)
            ++in_set;
    if (in_set >= geom_.ways) {
        // Front-most entry of the set = its least recently touched.
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (geom_.setIndex(it->pid, it->vpage) == set) {
                entries_.erase(it);
                break;
            }
        }
    }
    entries_.push_back(entry);
}

void
TlbReference::flushAll()
{
    entries_.clear();
}

void
TlbReference::flushPid(ProcessId pid)
{
    entries_.remove_if(
        [pid](const TlbEntry &e) { return e.pid == pid; });
}

void
TlbReference::flushPage(ProcessId pid, Addr vpage)
{
    entries_.remove_if([pid, vpage](const TlbEntry &e) {
        return e.pid == pid && e.vpage == vpage;
    });
}

ReferenceMmu::ReferenceMmu(PhysicalBus *bus, std::size_t tlb_capacity,
                           std::size_t tlb_ways)
    : bus_(bus), tlb_(tlb_capacity, tlb_ways)
{
}

void
ReferenceMmu::setPageTableProvider(PageTableProvider provider)
{
    provider_ = std::move(provider);
}

void
ReferenceMmu::addValidator(TlbFillValidator *validator)
{
    validators_.push_back(validator);
}

Result<Addr>
ReferenceMmu::translate(const ExecContext &ctx, Addr vaddr,
                        AccessType access)
{
    const Addr vpage = pageBase(vaddr);
    const std::uint8_t need = permFor(access);

    if (const TlbEntry *hit = tlb_.lookup(ctx.pid, ctx.enclave, vpage)) {
        tlb_.countHit();
        if ((hit->perms & need) == 0)
            return errAccessFault("permission denied (TLB)");
        return hit->ppage + pageOffset(vaddr);
    }
    tlb_.countMiss();

    if (!provider_)
        return errInternal("MMU has no page table provider");
    PageTable *pt = provider_(ctx.pid);
    if (!pt)
        return errNotFound("no page table for process");

    auto pte = pt->lookup(vaddr);
    if (!pte.isOk())
        return pte.status();
    if ((pte->perms & need) == 0)
        return errAccessFault("permission denied (PTE)");
    for (TlbFillValidator *v : validators_) {
        Status st = v->validateFill(ctx, vpage, pte->paddr, pte->perms);
        if (!st.isOk())
            return st;
    }
    tlb_.insert(TlbEntry{ctx.pid, ctx.enclave, vpage, pte->paddr,
                         pte->perms});
    return pte->paddr + pageOffset(vaddr);
}

Status
ReferenceMmu::read(const ExecContext &ctx, Addr vaddr, std::uint8_t *data,
                   std::size_t len)
{
    if (len > 0 && len - 1 > ~vaddr)
        return errInvalidArgument("access wraps past 2^64");
    while (len > 0) {
        const std::uint64_t in_page = PageSize - pageOffset(vaddr);
        const std::size_t take = std::min<std::uint64_t>(in_page, len);
        auto pa = translate(ctx, vaddr, AccessType::Read);
        if (!pa.isOk())
            return pa.status();
        HIX_RETURN_IF_ERROR(bus_->read(*pa, data, take));
        data += take;
        vaddr += take;
        len -= take;
    }
    return Status::ok();
}

Status
ReferenceMmu::write(const ExecContext &ctx, Addr vaddr,
                    const std::uint8_t *data, std::size_t len)
{
    if (len > 0 && len - 1 > ~vaddr)
        return errInvalidArgument("access wraps past 2^64");
    while (len > 0) {
        const std::uint64_t in_page = PageSize - pageOffset(vaddr);
        const std::size_t take = std::min<std::uint64_t>(in_page, len);
        auto pa = translate(ctx, vaddr, AccessType::Write);
        if (!pa.isOk())
            return pa.status();
        HIX_RETURN_IF_ERROR(bus_->write(*pa, data, take));
        data += take;
        vaddr += take;
        len -= take;
    }
    return Status::ok();
}

const PhysicalBus::Mapping *
linearRoute(const std::vector<PhysicalBus::Mapping> &mappings, Addr addr)
{
    for (const PhysicalBus::Mapping &m : mappings)
        if (m.range.contains(addr))
            return &m;
    return nullptr;
}

}  // namespace hix::mem
