/**
 * @file
 * IOMMU model: translates device-visible DMA addresses to physical
 * addresses. Its table is OS-owned — under the HIX threat model the
 * adversary can redirect any DMA (Section 4.3.3), which is why HIX
 * protects DMA payloads with authenticated encryption instead of
 * trusting this unit.
 *
 * Translations are grouped into protection domains, one per
 * requesting device (the root complex assigns domain = root-port
 * index). A device's DMA can only ever resolve through its own
 * domain's table, so a multi-GPU pool gets per-device DMA isolation:
 * device k addressing a page mapped only for device j faults. The
 * single-GPU setups all use the default domain 0 and behave exactly
 * as the single-domain model did.
 *
 * Translation is cached in an IOTLB that is a CPU mem::Tlb of its
 * own, keyed (pid = domain, enclave = InvalidEnclaveId, vpage =
 * device page), so its set-associative LRU policy is the one the
 * MemGoldenTlb tests pin against a linear-list oracle. Caching cannot
 * change what the adversary can do: fills mirror the OS-owned table
 * verbatim, and every table mutation (unmap/overwrite) flushes the
 * cached page before it takes effect, so a translate always returns
 * exactly what the table would.
 * Negative results (faults) are never cached.
 */

#ifndef HIX_MEM_IOMMU_H_
#define HIX_MEM_IOMMU_H_

#include <unordered_map>

#include "common/status.h"
#include "common/types.h"
#include "mem/mmu.h"
#include "mem/page.h"
#include "mem/phys_mem.h"

namespace hix::mem
{

/** IOMMU protection-domain id (root-port index of the requester). */
using IommuDomain = std::uint16_t;

/**
 * A multi-domain IOMMU. When disabled (bypass mode), device
 * addresses pass through untranslated (and the IOTLB is not
 * consulted or counted).
 */
class Iommu
{
  public:
    explicit Iommu(std::size_t iotlb_capacity = 64);

    /** Enable/disable translation; disabled = identity mapping. */
    void setEnabled(bool enabled) { enabled_ = enabled; }
    bool enabled() const { return enabled_; }

    /** Map a device page to a physical page (OS-controlled). */
    Status map(Addr device_addr, Addr phys_addr)
    {
        return map(0, device_addr, phys_addr);
    }
    Status map(IommuDomain domain, Addr device_addr, Addr phys_addr);

    /** Remove a device page mapping. */
    Status unmap(Addr device_addr) { return unmap(0, device_addr); }
    Status unmap(IommuDomain domain, Addr device_addr);

    /**
     * Rewrite a mapping without checks — the attacker primitive for
     * DMA redirection. Invalidates the cached page first, so the
     * redirect is visible to the very next translate (the attack
     * model must not be weakened by caching).
     */
    void overwrite(Addr device_addr, Addr phys_addr)
    {
        overwrite(0, device_addr, phys_addr);
    }
    void overwrite(IommuDomain domain, Addr device_addr, Addr phys_addr);

    /** Translate a device address; faults when unmapped. */
    Result<Addr> translate(Addr device_addr) const
    {
        return translate(0, device_addr);
    }
    Result<Addr> translate(IommuDomain domain, Addr device_addr) const;

    std::size_t entryCount() const { return table_.size(); }

    std::uint64_t iotlbHits() const { return iotlb_.hits(); }
    std::uint64_t iotlbMisses() const { return iotlb_.misses(); }
    /** Live IOTLB entries (for tests). */
    std::size_t iotlbSize() const { return iotlb_.size(); }

    /** Drop the whole IOTLB (platform reset / tests); O(1). */
    void flushIotlb() { iotlb_.flushAll(); }

  private:
    /** Table key. Device addresses span all 64 bits, as hardware
     * IOVAs do, so the domain cannot share a word with the page. */
    struct Key
    {
        IommuDomain domain;
        Addr dpage;

        bool operator==(const Key &) const = default;
    };

    struct KeyHash
    {
        std::size_t
        operator()(const Key &k) const
        {
            return std::hash<std::uint64_t>{}(
                k.dpage ^ (k.domain * 0x9E3779B97F4A7C15ull));
        }
    };

    bool enabled_ = false;
    std::unordered_map<Key, Addr, KeyHash> table_;
    // translate() is const, so the cache it fills is mutable.
    mutable Tlb iotlb_;
};

}  // namespace hix::mem

#endif  // HIX_MEM_IOMMU_H_
