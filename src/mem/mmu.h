/**
 * @file
 * MMU with TLB and a validating hardware page-table walker.
 *
 * This is HIX's central protection point (Section 4.3.1 of the
 * paper): on a TLB miss the walker fetches the OS-owned PTE, then
 * passes the proposed fill to registered validators *before* the
 * entry may enter the TLB. The SGX model registers a validator that
 * enforces EPCM rules for enclave pages and the four GECS/TGMR checks
 * for GPU MMIO pages. A denied fill is an access fault; the OS can
 * corrupt its page tables freely but can never make the hardware
 * honour a forged mapping.
 *
 * Two TLB engines implement one replacement policy (set-associative,
 * LRU within a set):
 *
 *  - Tlb: open-addressed slot array — O(ways) lookup/insert, O(1)
 *    epoch-based flushAll. The production engine.
 *  - TlbReference: the original linear std::list, kept as the golden
 *    oracle (same pattern as the scalar crypto engine and
 *    scheduleReference). Its global-recency list order restricted to
 *    one set is exactly within-set LRU, so both engines make
 *    bit-identical hit/miss/eviction decisions.
 *
 * The IOMMU's IOTLB is a Tlb too (iommu.h), so the oracle pins its
 * policy as well.
 *
 * Conservative-flush contract: entries are keyed (pid, enclave,
 * vpage), but flushPid/flushPage deliberately ignore the enclave tag
 * and drop every matching (pid[, vpage]) entry regardless of which
 * enclave filled it. Flushing is a pure availability operation —
 * over-flushing can never admit a stale mapping, while under-flushing
 * could — so the shootdown paths (EREMOVE, TGMR/GECS updates,
 * teardown) stay conservative. Pinned by the MemGolden flush-contract
 * tests.
 */

#ifndef HIX_MEM_MMU_H_
#define HIX_MEM_MMU_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "mem/page.h"
#include "mem/page_table.h"
#include "mem/phys_bus.h"

namespace hix::mem
{

/**
 * Who is performing an access: the process, and the enclave it is
 * currently executing in (InvalidEnclaveId when outside any enclave).
 */
struct ExecContext
{
    ProcessId pid = 0;
    EnclaveId enclave = InvalidEnclaveId;
};

/** A cached translation. */
struct TlbEntry
{
    ProcessId pid = 0;
    EnclaveId enclave = InvalidEnclaveId;
    Addr vpage = 0;
    Addr ppage = 0;
    std::uint8_t perms = PermNone;
};

/**
 * Hook consulted by the page-table walker before a TLB fill. All
 * registered validators must accept the fill.
 */
class TlbFillValidator
{
  public:
    virtual ~TlbFillValidator() = default;

    /**
     * Validate a proposed fill: @p ctx performs an access to
     * @p vpage mapping to @p ppage. Return OK to allow.
     */
    virtual Status validateFill(const ExecContext &ctx, Addr vpage,
                                Addr ppage, std::uint8_t perms) = 0;
};

/** Which TLB engine an Mmu uses. */
enum class TlbEngine
{
    Fast,       ///< Set-associative slot array (production).
    Reference,  ///< Linear list golden oracle.
};

/**
 * Set/way shape shared by both engines. The set index hashes
 * (pid, vpage) only — never the enclave tag — so flushPage(pid,
 * vpage), which ignores the enclave, needs to probe exactly one set.
 */
struct TlbGeometry
{
    std::size_t sets = 1;
    std::size_t ways = 1;

    /** Default associativity when the caller gives only a capacity. */
    static constexpr std::size_t DefaultWays = 4;

    /**
     * Shape for @p capacity entries: sets is the largest power of two
     * not above capacity / ways_hint, ways the quotient. Effective
     * capacity sets * ways rounds down for capacities not divisible
     * by the set count (never below max(1, capacity - sets + 1)).
     */
    static TlbGeometry forCapacity(std::size_t capacity,
                                   std::size_t ways_hint = DefaultWays);

    std::size_t
    setIndex(ProcessId pid, Addr vpage) const
    {
        std::uint64_t h =
            (vpage / PageSize) ^ (static_cast<std::uint64_t>(pid) << 1);
        h *= 0x9E3779B97F4A7C15ull;  // Fibonacci hashing constant
        return static_cast<std::size_t>((h >> 40) & (sets - 1));
    }

    std::size_t slotCount() const { return sets * ways; }
};

/**
 * Common TLB interface plus the hit/miss counters, which live here so
 * both engines count identically.
 */
class TlbBase
{
  public:
    explicit TlbBase(TlbGeometry geom) : geom_(geom) {}
    virtual ~TlbBase() = default;

    /**
     * Find an entry for (pid, enclave, vpage). A hit refreshes the
     * entry's LRU recency; the returned pointer is valid until the
     * next mutating call.
     */
    virtual const TlbEntry *lookup(ProcessId pid, EnclaveId enclave,
                                   Addr vpage) const = 0;

    /** Insert an entry, evicting within-set LRU when the set is full. */
    virtual void insert(const TlbEntry &entry) = 0;

    virtual void flushAll() = 0;
    /** Drop every entry of @p pid (enclave tag ignored — see above). */
    virtual void flushPid(ProcessId pid) = 0;
    /** Drop every (pid, vpage) entry (enclave tag ignored). */
    virtual void flushPage(ProcessId pid, Addr vpage) = 0;

    /** Live (valid) entry count. */
    virtual std::size_t size() const = 0;

    const TlbGeometry &geometry() const { return geom_; }
    std::size_t capacity() const { return geom_.slotCount(); }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Count a hit/miss (called by the MMU). */
    void countHit() const { ++hits_; }
    void countMiss() const { ++misses_; }

  protected:
    TlbGeometry geom_;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t misses_ = 0;
};

/**
 * Production TLB: open-addressed set-associative slot array. A slot
 * is valid iff its epoch matches the TLB's current epoch, which makes
 * flushAll an O(1) epoch bump. LRU within a set uses a global touch
 * tick stamped on every hit and insert.
 */
class Tlb : public TlbBase
{
  public:
    explicit Tlb(std::size_t capacity,
                 std::size_t ways_hint = TlbGeometry::DefaultWays);

    const TlbEntry *lookup(ProcessId pid, EnclaveId enclave,
                           Addr vpage) const override;
    void insert(const TlbEntry &entry) override;
    void flushAll() override;
    void flushPid(ProcessId pid) override;
    void flushPage(ProcessId pid, Addr vpage) override;
    std::size_t size() const override { return live_; }

    /** Current flush epoch (for tests). */
    std::uint64_t epoch() const { return epoch_; }

  private:
    struct Slot
    {
        TlbEntry entry;
        std::uint64_t epoch = 0;  // 0 = never filled; stale = flushed
        std::uint64_t stamp = 0;  // LRU recency
    };

    // lookup() is logically const but refreshes LRU recency.
    mutable std::vector<Slot> slots_;
    mutable std::uint64_t tick_ = 0;
    std::uint64_t epoch_ = 1;
    std::size_t live_ = 0;
};

/**
 * Golden-oracle TLB: linear list in global touch-recency order (back
 * = most recent). Restricted to one set, that order is within-set
 * recency, so evicting the front-most entry of a full set picks the
 * same victim as the fast engine's min-stamp slot.
 */
class TlbReference : public TlbBase
{
  public:
    explicit TlbReference(
        std::size_t capacity,
        std::size_t ways_hint = TlbGeometry::DefaultWays);

    const TlbEntry *lookup(ProcessId pid, EnclaveId enclave,
                           Addr vpage) const override;
    void insert(const TlbEntry &entry) override;
    void flushAll() override;
    void flushPid(ProcessId pid) override;
    void flushPage(ProcessId pid, Addr vpage) override;
    std::size_t size() const override { return entries_.size(); }

  private:
    // lookup() splices a hit to the back (recency refresh).
    mutable std::list<TlbEntry> entries_;
};

/**
 * The CPU MMU: translates virtual accesses, walking the current
 * process's page table on TLB misses and enforcing validator checks
 * on every fill. Also provides virtual-address read/write helpers
 * that route the resulting physical access over the bus.
 *
 * read/write walk once per page, coalesce physically contiguous page
 * runs, and route each run over the bus once (readPages/writePages);
 * the loop is movePhysicalRuns() (page.h), which the DMA path and the
 * GPU contexts share. readReference/writeReference keep the original
 * translate-then-route per-page loop as the differential oracle. Both
 * deliver identical bytes and Status codes; the only permitted
 * divergence is that when a bulk call fails at the *bus* layer, the
 * fast path may already have translated (and counted) pages beyond
 * the faulting one inside that same call — translate-level faults
 * (no PTE, permissions, validator denial) are counted identically.
 */
class Mmu
{
  public:
    /** Provider of the (OS-owned) page table for a process. */
    using PageTableProvider = std::function<PageTable *(ProcessId)>;

    Mmu(PhysicalBus *bus, std::size_t tlb_capacity = 64,
        TlbEngine engine = TlbEngine::Fast,
        std::size_t tlb_ways = TlbGeometry::DefaultWays);

    void setPageTableProvider(PageTableProvider provider);

    /** Register a fill validator; all must pass. */
    void addValidator(TlbFillValidator *validator);

    /**
     * Translate @p vaddr for @p ctx. Returns the physical address or
     * an AccessFault/NotFound status.
     */
    Result<Addr> translate(const ExecContext &ctx, Addr vaddr,
                           AccessType access);

    /** Virtual-address read: single walk per page, coalesced runs. */
    Status read(const ExecContext &ctx, Addr vaddr, std::uint8_t *data,
                std::size_t len);

    /** Virtual-address write counterpart of read(). */
    Status write(const ExecContext &ctx, Addr vaddr,
                 const std::uint8_t *data, std::size_t len);

    /** Original per-page read loop — the differential oracle. */
    Status readReference(const ExecContext &ctx, Addr vaddr,
                         std::uint8_t *data, std::size_t len);

    /** Original per-page write loop — the differential oracle. */
    Status writeReference(const ExecContext &ctx, Addr vaddr,
                          const std::uint8_t *data, std::size_t len);

    /** TLB shootdown helpers (see the conservative-flush contract). */
    void flushTlbAll() { tlb_->flushAll(); }
    void flushTlbPid(ProcessId pid) { tlb_->flushPid(pid); }
    void flushTlbPage(ProcessId pid, Addr vpage)
    {
        tlb_->flushPage(pid, vpage);
    }

    std::uint64_t tlbHits() const { return tlb_->hits(); }
    std::uint64_t tlbMisses() const { return tlb_->misses(); }

    TlbBase &tlb() { return *tlb_; }
    const TlbBase &tlb() const { return *tlb_; }

    PhysicalBus *bus() { return bus_; }

  private:
    PhysicalBus *bus_;
    std::unique_ptr<TlbBase> tlb_;
    PageTableProvider provider_;
    std::vector<TlbFillValidator *> validators_;
};

}  // namespace hix::mem

#endif  // HIX_MEM_MMU_H_
