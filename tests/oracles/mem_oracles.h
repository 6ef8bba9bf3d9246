/**
 * @file
 * Test-only oracles for the memory system (src/mem). Each is the
 * plain first version of a structure the simulator runs in a faster
 * shape, kept so the differential tests can compare the two:
 *
 *  - TlbReference: the TLB as a linear list in global touch-recency
 *    order, against mem::Tlb's set-associative slot array.
 *  - ReferenceMmu: the validating walker over a TlbReference, copying
 *    page by page through PhysicalBus::read/write, against mem::Mmu's
 *    coalesced bulk copies.
 *  - linearRoute(): bus routing as a linear scan over the ranges a
 *    test attached itself, against PhysicalBus::route().
 *
 * MemGolden, MmuTest, PhysBusTest and the memory_system fuzz target
 * link this library; the simulator does not.
 */

#ifndef HIX_ORACLES_MEM_ORACLES_H_
#define HIX_ORACLES_MEM_ORACLES_H_

#include <cstdint>
#include <list>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "mem/mmu.h"
#include "mem/page_table.h"
#include "mem/phys_bus.h"

namespace hix::mem
{

/**
 * Golden-oracle TLB: linear list in global touch-recency order (back
 * = most recent). Restricted to one set, that order is within-set
 * recency, so evicting the front-most entry of a full set picks the
 * same victim as Tlb's min-stamp slot.
 */
class TlbReference
{
  public:
    explicit TlbReference(
        std::size_t capacity,
        std::size_t ways_hint = TlbGeometry::DefaultWays);

    const TlbEntry *lookup(ProcessId pid, EnclaveId enclave,
                           Addr vpage) const;
    void insert(const TlbEntry &entry);
    void flushAll();
    void flushPid(ProcessId pid);
    void flushPage(ProcessId pid, Addr vpage);
    std::size_t size() const { return entries_.size(); }

    const TlbGeometry &geometry() const { return geom_; }
    std::size_t capacity() const { return geom_.slotCount(); }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    void countHit() const { ++hits_; }
    void countMiss() const { ++misses_; }

  private:
    TlbGeometry geom_;
    // lookup() splices a hit to the back (recency refresh).
    mutable std::list<TlbEntry> entries_;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
};

/**
 * Golden-oracle MMU with Mmu's interface: the same validating walker
 * over a TlbReference, and read/write as the original per-page loop
 * (translate a page, route it over the bus with PhysicalBus::read or
 * write, go on). An access whose last byte lies past 2^64 - 1 is
 * InvalidArgument before anything is translated, as in Mmu.
 */
class ReferenceMmu
{
  public:
    using PageTableProvider = Mmu::PageTableProvider;

    ReferenceMmu(PhysicalBus *bus, std::size_t tlb_capacity = 64,
                 std::size_t tlb_ways = TlbGeometry::DefaultWays);

    void setPageTableProvider(PageTableProvider provider);
    void addValidator(TlbFillValidator *validator);

    Result<Addr> translate(const ExecContext &ctx, Addr vaddr,
                           AccessType access);

    Status read(const ExecContext &ctx, Addr vaddr, std::uint8_t *data,
                std::size_t len);
    Status write(const ExecContext &ctx, Addr vaddr,
                 const std::uint8_t *data, std::size_t len);

    void flushTlbAll() { tlb_.flushAll(); }
    void flushTlbPid(ProcessId pid) { tlb_.flushPid(pid); }
    void flushTlbPage(ProcessId pid, Addr vpage)
    {
        tlb_.flushPage(pid, vpage);
    }

    std::uint64_t tlbHits() const { return tlb_.hits(); }
    std::uint64_t tlbMisses() const { return tlb_.misses(); }

    TlbReference &tlb() { return tlb_; }
    const TlbReference &tlb() const { return tlb_; }

  private:
    PhysicalBus *bus_;
    TlbReference tlb_;
    PageTableProvider provider_;
    std::vector<TlbFillValidator *> validators_;
};

/**
 * The mapping of @p mappings that contains @p addr, found by a linear
 * scan, or nullptr. @p mappings are the ranges the caller attached to
 * the bus under test, in any order.
 */
const PhysicalBus::Mapping *
linearRoute(const std::vector<PhysicalBus::Mapping> &mappings, Addr addr);

}  // namespace hix::mem

#endif  // HIX_ORACLES_MEM_ORACLES_H_
