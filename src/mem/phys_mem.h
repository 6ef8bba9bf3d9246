/**
 * @file
 * Sparse DRAM model: one flat host region per memory, committed by
 * the OS only where the workload writes, so a modelled machine with
 * gigabytes of RAM costs only what it actually touches.
 *
 * Representation. Each page is in exactly one of two states:
 *  - private: its bytes live in the region at `base + page *
 *    PageSize`, and its bit in the private-page bitmap is set;
 *  - absent: it reads as zero.
 * The invariant that makes recycling safe is that a page which is
 * not private reads as zero whatever bytes the region still holds;
 * readAt() and view() both go through the bitmap, never through raw
 * region bytes of an absent page. readAt() of an absent page fills
 * zeros without materialising it, and writeAt() of a whole page
 * skips the zero-fill, so the bus's page-chunked copies need no
 * borrowed spans.
 *
 * Regions are reserved with MAP_NORESERVE, acquired on the first
 * write or view (not at construction) and, on destruction, handed to
 * a process-wide free list (one mutex). A new memory reuses the most
 * recently released region of its size first, so the pages the OS
 * has already committed are the ones touched again.
 *
 * Views: view() makes a range private and lends it as one span of
 * the region, which is what lets GPU kernels and the in-GPU OCB op
 * work on VRAM in place. viewForOverwrite() does the same for a
 * range its caller writes whole (a seal into its ring slot), without
 * zero-filling the pages the write replaces.
 */

#ifndef HIX_MEM_PHYS_MEM_H_
#define HIX_MEM_PHYS_MEM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/addr_range.h"
#include "common/types.h"
#include "mem/page.h"
#include "mem/phys_bus.h"

namespace hix::mem
{

/**
 * Sparse physical memory of a given size. Reads of untouched pages
 * return zeros.
 */
class PhysMem : public BusTarget
{
  public:
    /** DRAM of @p size bytes named @p name. */
    PhysMem(std::string name, std::uint64_t size);

    /** Returns the region, if one was acquired, to the free list. */
    ~PhysMem() override;

    PhysMem(const PhysMem &) = delete;
    PhysMem &operator=(const PhysMem &) = delete;

    std::string targetName() const override { return name_; }
    std::uint64_t size() const { return size_; }

    Status readAt(std::uint64_t offset, std::uint8_t *data,
                  std::size_t len) override;
    Status writeAt(std::uint64_t offset, const std::uint8_t *data,
                   std::size_t len) override;

    /**
     * Writable view of [offset, offset + len) as one span of the
     * region, or nullptr when the range is empty or out of bounds.
     * Every page in the range becomes private first (absent pages
     * are zeroed), so the view reads exactly what readAt() would. It
     * stays the memory's contents until the next zeroAt() over the
     * range.
     */
    std::uint8_t *view(std::uint64_t offset, std::size_t len);

    /**
     * view() of a range the caller overwrites whole before anything
     * reads it. Absent pages that lie wholly inside the range become
     * private without the zero-fill, so until the caller's write they
     * hold whatever a recycled region left there; absent pages the
     * range only partly covers are zeroed as view() zeroes them, so
     * the bytes around the range still read as zero.
     */
    std::uint8_t *viewForOverwrite(std::uint64_t offset, std::size_t len);

    /**
     * Zero-fill a byte range (used for scrubbing). Whole-page spans
     * drop the page back to absent instead of writing zeros.
     */
    Status zeroAt(std::uint64_t offset, std::uint64_t len);

    /** Private pages: the memory this instance has materialised. */
    std::size_t residentPages() const;

  private:
    bool isPrivate(std::uint64_t page) const
    {
        return !private_.empty() &&
               (private_[page / 64] >> (page % 64)) & 1;
    }

    std::uint8_t *regionPage(std::uint64_t page) const
    {
        return base_ + page * PageSize;
    }

    /** Read path: the bytes of @p page, or nullptr when absent. */
    const std::uint8_t *peekPage(std::uint64_t page) const
    {
        return isPrivate(page) ? regionPage(page) : nullptr;
    }

    /**
     * Make @p page private and return its region bytes. Unless
     * @p overwrite_all (the caller rewrites the whole page), the
     * page is zero-filled first: a recycled region still holds its
     * last owner's bytes.
     */
    std::uint8_t *privatize(std::uint64_t page, bool overwrite_all);

    /** view() and viewForOverwrite(), by @p overwrite. */
    std::uint8_t *lend(std::uint64_t offset, std::size_t len,
                       bool overwrite);

    /** Write path: the page's region bytes, privatised if absent. */
    std::uint8_t *mutPage(std::uint64_t page, bool overwrite_all)
    {
        return isPrivate(page) ? regionPage(page)
                               : privatize(page, overwrite_all);
    }

    std::string name_;
    std::uint64_t size_;
    /** The region; nullptr until the first write or view. */
    std::uint8_t *base_ = nullptr;
    /** Private-page bitmap, allocated with the region. */
    std::vector<std::uint64_t> private_;
};

}  // namespace hix::mem

#endif  // HIX_MEM_PHYS_MEM_H_
