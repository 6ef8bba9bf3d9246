/**
 * @file
 * HIX-protected GPU managed memory (demand paging) — the Section 5.6
 * future work implemented: GPU allocations larger than their VRAM
 * residency quota, with pages demand-paged between device memory and
 * untrusted host swap. Exactly as the paper prescribes, every page is
 * encrypted and integrity-protected *inside the GPU* before it is
 * written back to main memory:
 *
 *  - evict:   in-GPU OCB-encrypt(page) -> DMA ciphertext||tag to the
 *             host swap slot; the nonce counter used is retained in
 *             enclave memory.
 *  - page-in: DMA ciphertext||tag from swap -> in-GPU OCB-decrypt
 *             with the retained counter. Tampered swap fails the MAC;
 *             a replayed older snapshot fails because its nonce
 *             counter is stale — freshness comes from the enclave-
 *             resident per-page counters.
 *
 * Pages are materialized lazily (untouched pages read as zeros and
 * occupy neither VRAM nor swap) and evicted LRU when the residency
 * quota is exceeded.
 */

#ifndef HIX_HIX_MANAGED_MEMORY_H_
#define HIX_HIX_MANAGED_MEMORY_H_

#include <list>
#include <vector>

#include "driver/gdev_driver.h"
#include "os/machine.h"

namespace hix::core
{

/** Construction parameters for one managed buffer. */
struct ManagedConfig
{
    /** Managed GPU virtual base address (stable across paging). */
    Addr baseVa = 0;
    /** Buffer size in bytes (rounded up to whole pages). */
    std::uint64_t size = 0;
    /** Page size (functional bytes; timing scales like all data). */
    std::uint64_t pageBytes = 64 * KiB;
    /** Residency quota, in pages. */
    std::uint32_t maxResidentPages = 4;
    /** GPU context and session crypto identity. */
    GpuContextId gpuCtx = 0;
    std::uint32_t keySlot = 0;
    std::uint32_t nonceStream = 0;
    /** Host swap backing (one page+tag slot per page). */
    os::DmaBuffer swap;
    /** A staging area of pageBytes+tag inside the GPU context. */
    Addr stagingVa = 0;
};

/**
 * One managed allocation. Owned by a GPU enclave session; all device
 * operations go through that session's driver (and therefore carry
 * timing and TGMR-checked MMIO like everything else).
 */
class ManagedBuffer
{
  public:
    ManagedBuffer(os::Machine *machine, driver::GdevDriver *driver,
                  const ManagedConfig &config);
    ~ManagedBuffer();

    ManagedBuffer(const ManagedBuffer &) = delete;
    ManagedBuffer &operator=(const ManagedBuffer &) = delete;

    Addr baseVa() const { return config_.baseVa; }
    std::uint64_t size() const { return config_.size; }

    /** True when [va, va+len) lies inside this buffer. */
    bool covers(Addr va, std::uint64_t len) const;

    /**
     * Make the pages covering [va, va+len) resident, paging in (and
     * evicting) as needed. Fails when the range needs more pages
     * than the quota allows at once.
     */
    Status ensureResident(Addr va, std::uint64_t len);

    /** Make the whole buffer resident (fails if quota too small). */
    Status prefetchAll();

    std::uint32_t residentPages() const;

    /** Release all residency and swap state (session teardown). */
    Status teardown();

  private:
    struct Page
    {
        bool resident = false;
        /** Page has data (in VRAM or swap); else reads as zeros. */
        bool materialized = false;
        Addr vramPa = 0;
        /** Nonce counter of the ciphertext currently in swap. */
        std::uint64_t swapCounter = 0;
    };

    Addr pageVa(std::size_t index) const;
    Addr swapSlotPa(std::size_t index) const;
    Status pageIn(std::size_t index);
    Status evictLru();
    void touch(std::size_t index);

    os::Machine *machine_;
    driver::GdevDriver *driver_;
    ManagedConfig config_;
    std::vector<Page> pages_;
    /** LRU order of resident pages; front = least recent. */
    std::list<std::size_t> lru_;
    std::uint64_t next_counter_ = 1;
    bool torn_down_ = false;
};

}  // namespace hix::core

#endif  // HIX_HIX_MANAGED_MEMORY_H_
