/**
 * @file
 * Physical address space routing.
 *
 * The modelled machine has one flat physical address map (Figure 2 of
 * the paper): DRAM plus one or more MMIO windows claimed by PCIe
 * devices. BusTargets register their ranges with the PhysicalBus,
 * which routes physical reads/writes by address — the hardware role
 * split between the CPU's system agent and the PCIe root complex.
 * A target is a name plus readAt()/writeAt(); the bus lends no
 * borrowed views of target storage.
 *
 * Routing is the innermost loop of every modelled memory access, so
 * the bus keeps its mappings sorted by start address and routes with
 * a binary search plus a one-entry most-recently-used cache. The
 * differential tests check it against a linear scan over the ranges
 * they attached themselves (tests/oracles/).
 */

#ifndef HIX_MEM_PHYS_BUS_H_
#define HIX_MEM_PHYS_BUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/addr_range.h"
#include "common/status.h"
#include "common/types.h"

namespace hix::mem
{

/** Anything that claims a physical address range. */
class BusTarget
{
  public:
    virtual ~BusTarget() = default;

    /** Name for diagnostics. */
    virtual std::string targetName() const = 0;

    /** Read @p len bytes at @p offset within the claimed range. */
    virtual Status readAt(std::uint64_t offset, std::uint8_t *data,
                          std::size_t len) = 0;

    /** Write @p len bytes at @p offset within the claimed range. */
    virtual Status writeAt(std::uint64_t offset,
                           const std::uint8_t *data, std::size_t len) = 0;
};

/**
 * Routes physical accesses to the registered target whose range
 * contains the address. Single accesses (read/write) must not
 * straddle targets; the page-chunked bulk helpers (readPages/
 * writePages) re-route per page and so may legally cross target
 * boundaries at page edges, exactly like the per-page loops they
 * replace.
 */
class PhysicalBus
{
  public:
    /** A claimed range and its owner. */
    struct Mapping
    {
        AddrRange range;
        BusTarget *target;
    };

    /** Claim @p range for @p target; ranges must not overlap. */
    Status attach(const AddrRange &range, BusTarget *target);

    /** Release a previously claimed range. */
    Status detach(const AddrRange &range);

    /** Route a physical read. */
    Status read(Addr addr, std::uint8_t *data, std::size_t len);

    /** Route a physical write. */
    Status write(Addr addr, const std::uint8_t *data, std::size_t len);

    /**
     * Bulk read that re-routes at every page boundary. Byte- and
     * Status-identical to a per-page read() loop: on a mid-run fault
     * nothing past the faulting page has been read.
     */
    Status readPages(Addr addr, std::uint8_t *data, std::size_t len);

    /** Bulk write counterpart of readPages(). */
    Status writePages(Addr addr, const std::uint8_t *data,
                      std::size_t len);

    /**
     * Binary-search route with a one-entry MRU cache. Returns the
     * mapping containing @p addr, or nullptr. The pointer is
     * invalidated by attach/detach.
     */
    const Mapping *route(Addr addr) const;

    /** The target claiming @p addr, or nullptr. */
    BusTarget *targetAt(Addr addr) const;

    /** The range claimed by the target covering @p addr. */
    Result<AddrRange> rangeAt(Addr addr) const;

    /** Number of attached mappings. */
    std::size_t mappingCount() const { return mappings_.size(); }

  private:
    std::vector<Mapping> mappings_;  // sorted by range.start()
    // One-entry MRU route cache: index into mappings_, or >= size()
    // when invalid. Mutable so route() stays usable from const
    // accessors; invalidated by attach/detach.
    mutable std::size_t last_route_ = ~std::size_t(0);
};

}  // namespace hix::mem

#endif  // HIX_MEM_PHYS_BUS_H_
