#include "mem/mmu.h"

#include <algorithm>

#include "common/logging.h"

namespace hix::mem
{

TlbGeometry
TlbGeometry::forCapacity(std::size_t capacity, std::size_t ways_hint)
{
    capacity = std::max<std::size_t>(1, capacity);
    ways_hint = std::min(std::max<std::size_t>(1, ways_hint), capacity);
    const std::size_t target = std::max<std::size_t>(1, capacity / ways_hint);
    std::size_t sets = 1;
    while (sets * 2 <= target)
        sets *= 2;
    return TlbGeometry{sets, capacity / sets};
}

Tlb::Tlb(std::size_t capacity, std::size_t ways_hint)
    : TlbBase(TlbGeometry::forCapacity(capacity, ways_hint)),
      slots_(geom_.slotCount())
{
}

const TlbEntry *
Tlb::lookup(ProcessId pid, EnclaveId enclave, Addr vpage) const
{
    Slot *base = &slots_[geom_.setIndex(pid, vpage) * geom_.ways];
    for (std::size_t w = 0; w < geom_.ways; ++w) {
        Slot &s = base[w];
        if (s.epoch == epoch_ && s.entry.vpage == vpage &&
            s.entry.pid == pid && s.entry.enclave == enclave) {
            s.stamp = ++tick_;
            return &s.entry;
        }
    }
    return nullptr;
}

void
Tlb::insert(const TlbEntry &entry)
{
    Slot *base = &slots_[geom_.setIndex(entry.pid, entry.vpage) *
                         geom_.ways];
    Slot *free_slot = nullptr;
    Slot *victim = nullptr;
    for (std::size_t w = 0; w < geom_.ways; ++w) {
        Slot &s = base[w];
        if (s.epoch != epoch_) {
            if (!free_slot)
                free_slot = &s;
            continue;
        }
        if (s.entry.vpage == entry.vpage && s.entry.pid == entry.pid &&
            s.entry.enclave == entry.enclave) {
            s.entry = entry;
            s.stamp = ++tick_;
            return;
        }
        if (!victim || s.stamp < victim->stamp)
            victim = &s;
    }
    Slot *dst = free_slot ? free_slot : victim;
    if (free_slot) {
        ++live_;
        dst->epoch = epoch_;
    }
    dst->entry = entry;
    dst->stamp = ++tick_;
}

void
Tlb::flushAll()
{
    ++epoch_;
    live_ = 0;
}

void
Tlb::flushPid(ProcessId pid)
{
    for (Slot &s : slots_) {
        if (s.epoch == epoch_ && s.entry.pid == pid) {
            s.epoch = 0;
            --live_;
        }
    }
}

void
Tlb::flushPage(ProcessId pid, Addr vpage)
{
    // The set index ignores the enclave tag, so every entry the
    // conservative flush must drop lives in this one set.
    Slot *base = &slots_[geom_.setIndex(pid, vpage) * geom_.ways];
    for (std::size_t w = 0; w < geom_.ways; ++w) {
        Slot &s = base[w];
        if (s.epoch == epoch_ && s.entry.pid == pid &&
            s.entry.vpage == vpage) {
            s.epoch = 0;
            --live_;
        }
    }
}

TlbReference::TlbReference(std::size_t capacity, std::size_t ways_hint)
    : TlbBase(TlbGeometry::forCapacity(capacity, ways_hint))
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

namespace
{

std::unique_ptr<TlbBase>
makeTlb(TlbEngine engine, std::size_t capacity, std::size_t ways)
{
    if (engine == TlbEngine::Reference)
        return std::make_unique<TlbReference>(capacity, ways);
    return std::make_unique<Tlb>(capacity, ways);
}

}  // namespace

Mmu::Mmu(PhysicalBus *bus, std::size_t tlb_capacity, TlbEngine engine,
         std::size_t tlb_ways)
    : bus_(bus), tlb_(makeTlb(engine, tlb_capacity, tlb_ways))
{
}

void
Mmu::setPageTableProvider(PageTableProvider provider)
{
    provider_ = std::move(provider);
}

void
Mmu::addValidator(TlbFillValidator *validator)
{
    validators_.push_back(validator);
}

Result<Addr>
Mmu::translate(const ExecContext &ctx, Addr vaddr, AccessType access)
{
    const Addr vpage = pageBase(vaddr);
    const std::uint8_t need = permFor(access);

    if (const TlbEntry *hit = tlb_->lookup(ctx.pid, ctx.enclave, vpage)) {
        tlb_->countHit();
        if ((hit->perms & need) == 0)
            return errAccessFault("permission denied (TLB)");
        return hit->ppage + pageOffset(vaddr);
    }
    tlb_->countMiss();

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

    // The hardware walker validates the fill before caching it; this
    // is where EPCM and TGMR enforcement happens.
    for (TlbFillValidator *v : validators_) {
        Status st = v->validateFill(ctx, vpage, pte->paddr, pte->perms);
        if (!st.isOk())
            return st;
    }

    tlb_->insert(TlbEntry{ctx.pid, ctx.enclave, vpage, pte->paddr,
                          pte->perms});
    return pte->paddr + pageOffset(vaddr);
}

Status
Mmu::read(const ExecContext &ctx, Addr vaddr, std::uint8_t *data,
          std::size_t len)
{
    return movePhysicalRuns(
        vaddr, len,
        [&](Addr va) { return translate(ctx, va, AccessType::Read); },
        [&](Addr pa, std::uint64_t done, std::uint64_t n) {
            return bus_->readPages(pa, data + done, n);
        });
}

Status
Mmu::write(const ExecContext &ctx, Addr vaddr, const std::uint8_t *data,
           std::size_t len)
{
    return movePhysicalRuns(
        vaddr, len,
        [&](Addr va) { return translate(ctx, va, AccessType::Write); },
        [&](Addr pa, std::uint64_t done, std::uint64_t n) {
            return bus_->writePages(pa, data + done, n);
        });
}

Status
Mmu::readReference(const ExecContext &ctx, Addr vaddr, std::uint8_t *data,
                   std::size_t len)
{
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
Mmu::writeReference(const ExecContext &ctx, Addr vaddr,
                    const std::uint8_t *data, std::size_t len)
{
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

}  // namespace hix::mem
