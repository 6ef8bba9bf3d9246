/**
 * @file
 * Page geometry of the modelled machine, and the memory system's one
 * rule for an access that spans pages: movePhysicalRuns(). Split out
 * of phys_mem.h so the bus, the MMU, the root complex's DMA path and
 * the GPU contexts can share it without depending on the DRAM model.
 */

#ifndef HIX_MEM_PAGE_H_
#define HIX_MEM_PAGE_H_

#include <algorithm>
#include <cstdint>

#include "common/status.h"
#include "common/types.h"

namespace hix::mem
{

/** Page size of the modelled machine (4 KiB, x86-64 base pages). */
inline constexpr std::uint64_t PageSize = 4096;

/** Page-align an address downwards. */
constexpr Addr
pageBase(Addr a)
{
    return a & ~(PageSize - 1);
}

/** Offset of an address within its page. */
constexpr std::uint64_t
pageOffset(Addr a)
{
    return a & (PageSize - 1);
}

/** True when @p a is page-aligned. */
constexpr bool
pageAligned(Addr a)
{
    return pageOffset(a) == 0;
}

/**
 * Move the @p len bytes at virtual (or device) address @p addr as
 * physically contiguous runs. `translate(a)` returns a Result<Addr>
 * and is called once per page, in order; a page whose physical
 * address follows the pending run joins it, and `move(pa, done, n)`
 * moves bytes [done, done + n) of the access, which start at physical
 * address pa, once per run.
 *
 * A translate fault moves the pending run first, so the access leaves
 * exactly the prefix a per-page translate-then-move loop would; an
 * error from that move outranks the fault. A move error ends the
 * access, after the pages of its run (and the page that ended the
 * run) were translated. Translations must be page-aligned on both
 * sides, so physical page boundaries fall where the access's page
 * boundaries do.
 */
template <typename Translate, typename Move>
Status
movePhysicalRuns(Addr addr, std::uint64_t len, Translate &&translate,
                 Move &&move)
{
    if (len == 0)
        return Status::ok();
    Result<Addr> first = translate(addr);
    if (!first.isOk())
        return first.status();
    Addr run_pa = *first;
    std::uint64_t done = 0;
    std::uint64_t run_len = std::min(PageSize - pageOffset(addr), len);
    while (done + run_len < len) {
        const std::uint64_t covered = done + run_len;
        Result<Addr> pa = translate(addr + covered);
        if (!pa.isOk()) {
            Status st = move(run_pa, done, run_len);
            return st.isOk() ? pa.status() : st;
        }
        const std::uint64_t take = std::min(PageSize, len - covered);
        if (*pa == run_pa + run_len) {
            run_len += take;
        } else {
            HIX_RETURN_IF_ERROR(move(run_pa, done, run_len));
            run_pa = *pa;
            done = covered;
            run_len = take;
        }
    }
    return move(run_pa, done, run_len);
}

}  // namespace hix::mem

#endif  // HIX_MEM_PAGE_H_
