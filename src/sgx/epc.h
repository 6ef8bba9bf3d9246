/**
 * @file
 * Enclave Page Cache (EPC) and its map (EPCM).
 *
 * The EPC is a carved-out physical range whose pages may only be
 * touched through validated enclave translations (Figure 1 of the
 * paper). The EPCM records, per EPC page, the owning enclave and the
 * exact virtual address the page must be mapped at — the information
 * the hardware walker checks on every TLB fill.
 */

#ifndef HIX_SGX_EPC_H_
#define HIX_SGX_EPC_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/addr_range.h"
#include "common/status.h"
#include "common/types.h"
#include "mem/phys_mem.h"

namespace hix::sgx
{

/** EPC page types (subset of SGX's). */
enum class EpcPageType : std::uint8_t
{
    Secs,     //!< enclave control structure
    Regular,  //!< REG page holding enclave code/data
    /** HIX: hidden pages holding GECS/TGMR metadata. */
    HixMeta,
};

/** One EPCM entry. */
struct EpcmEntry
{
    bool valid = false;
    EpcPageType type = EpcPageType::Regular;
    EnclaveId owner = InvalidEnclaveId;
    /** Virtual page this EPC page must be mapped at (REG pages). */
    Addr vpage = 0;
    std::uint8_t perms = 0;
};

/**
 * EPC page allocator plus EPCM. Pages are identified by physical
 * address within the EPC range.
 */
class Epc
{
  public:
    explicit Epc(AddrRange range);

    const AddrRange &range() const { return range_; }

    /** True when @p paddr falls inside the EPC. */
    bool contains(Addr paddr) const { return range_.contains(paddr); }

    /** Allocate a free EPC page; returns its physical base. */
    Result<Addr> allocPage(EpcPageType type, EnclaveId owner,
                           Addr vpage, std::uint8_t perms);

    /** Free one page (platform reset / enclave teardown). */
    Status freePage(Addr paddr);

    /** Free every page owned by @p enclave. */
    void freeOwnedBy(EnclaveId enclave);

    /** EPCM entry for the page containing @p paddr. */
    const EpcmEntry *entryFor(Addr paddr) const;

    std::size_t freePages() const
    {
        return (total_pages_ - next_fresh_) + recycled_.size();
    }
    std::size_t totalPages() const { return total_pages_; }

  private:
    AddrRange range_;
    std::size_t total_pages_;
    /**
     * Free pages are the recycled list plus every page at index >=
     * next_fresh_ (never handed out). Allocation pops the
     * most-recently-freed page first, then fresh pages in ascending
     * address order — the same order a prefilled free list gives —
     * while keeping construction O(1): a machine is built per
     * session, and a prefilled list would cost one entry per EPC page.
     */
    std::size_t next_fresh_ = 0;
    std::vector<Addr> recycled_;
    std::unordered_map<Addr, EpcmEntry> epcm_;  // keyed by page base
};

}  // namespace hix::sgx

#endif  // HIX_SGX_EPC_H_
