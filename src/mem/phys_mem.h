/**
 * @file
 * Sparse DRAM model: one flat host region per memory, committed by
 * the OS only where the workload writes, so a modelled machine with
 * gigabytes of RAM costs only what it actually touches.
 *
 * Representation. Each page is in exactly one of three states:
 *  - private: its bytes live in the region at `base + page *
 *    PageSize`, and its bit in the private-page bitmap is set;
 *  - shared: its bytes live in an immutable refcounted 4 KiB page in
 *    a sparse overlay (a snapshot or sibling fork may hold the same
 *    page);
 *  - absent: it reads as zero.
 * The invariant that makes recycling safe is that a page which is
 * neither private nor shared reads as zero whatever bytes the region
 * still holds; readAt(), readSpan() and view() all go through the
 * bitmap, never through raw region bytes of a non-private page.
 *
 * Regions are reserved with MAP_NORESERVE, acquired on the first
 * write or view (not at construction) and, on destruction, handed to
 * a process-wide free list (one mutex). A new memory reuses the most
 * recently released region of its size first, so the pages the OS
 * has already committed are the ones touched again.
 *
 * Snapshot/fork: snapshot() moves every private page into a new
 * overlay page and returns the overlay; adopt() clears the bitmap and
 * installs a snapshot's overlay. An overlay page with more than one
 * owner is immutable: a write first copies it into the region (a
 * write covering the whole page skips the copy). An overlay page
 * whose `use_count()` is 1 is owned by this instance alone (nobody
 * else holds a reference to copy from), so it is written in place,
 * race-free; shared_ptr refcounts are atomic, so many threads may
 * adopt the same snapshot concurrently.
 *
 * Views: view() makes a range private and lends it as one span of
 * the region, which is what lets GPU kernels and the in-GPU OCB op
 * work on VRAM in place.
 */

#ifndef HIX_MEM_PHYS_MEM_H_
#define HIX_MEM_PHYS_MEM_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
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
    /** An immutable refcounted 4 KiB page of the overlay. */
    using SharedPage = std::shared_ptr<std::uint8_t[]>;

    /**
     * A point-in-time image of the memory: every non-zero page as a
     * refcounted overlay page. Holding a Snapshot freezes those pages
     * (owners copy-on-write instead of mutating them), so it stays
     * valid after the source PhysMem is destroyed and may be adopted
     * by any number of forks, concurrently.
     */
    struct Snapshot
    {
        std::uint64_t size = 0;
        std::unordered_map<std::uint64_t, SharedPage> pages;
    };

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
     * Borrowed span within one page; absent pages lend a shared
     * all-zero page (no materialisation on reads). Returns nullptr
     * when the request crosses a page boundary or is out of bounds —
     * callers fall back to readAt(). Reads of shared (snapshotted)
     * pages stay zero-copy.
     */
    const std::uint8_t *readSpan(std::uint64_t offset,
                                 std::size_t len) override;

    /**
     * Writable span within one page, for a caller that overwrites
     * every byte of it: a span covering the whole page is lent
     * without copying or zero-filling the page first.
     */
    std::uint8_t *writeSpan(std::uint64_t offset,
                            std::size_t len) override;

    /**
     * Writable view of [offset, offset + len) as one span of the
     * region, or nullptr when the range is empty or out of bounds.
     * Every page in the range becomes private first: shared pages are
     * copied in and absent pages zeroed, so the view reads exactly
     * what readAt() would. It stays the memory's contents until the
     * next snapshot(), adopt() or zeroAt() over the range.
     */
    std::uint8_t *view(std::uint64_t offset, std::size_t len);

    /**
     * Zero-fill a byte range (used for scrubbing). Whole-page spans
     * drop the page back to absent (decrefing a shared page) instead
     * of writing zeros.
     */
    Status zeroAt(std::uint64_t offset, std::uint64_t len);

    /**
     * Freeze the current contents: every private page moves into a
     * new overlay page, which this memory and the returned snapshot
     * then share.
     */
    Snapshot snapshot();

    /**
     * Replace this memory's contents with @p snap (sizes must match).
     * O(pages in the snapshot); no page bytes are copied until a
     * write actually lands on a shared page.
     */
    Status adopt(const Snapshot &snap);

    /** Pages owned by this instance alone (private pages and
     * sole-owner overlay pages) — the memory attributable to it
     * beyond any shared snapshot. */
    std::size_t residentPages() const;

    /** Overlay pages shared with a snapshot or a sibling fork
     * (refcount > 1; zero marginal cost per fork). */
    std::size_t sharedPages() const;

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

    /** The overlay page of @p page, or nullptr. */
    const SharedPage *overlayPage(std::uint64_t page) const;

    /** Read path: the bytes of @p page, or nullptr when absent. */
    const std::uint8_t *peekPage(std::uint64_t page) const;

    /**
     * Make @p page private and return its region bytes. Unless
     * @p overwrite_all (the caller rewrites the whole page), the
     * page's current contents are copied in or zero-filled first.
     */
    std::uint8_t *privatize(std::uint64_t page, bool overwrite_all);

    /** Write path: a sole-owner overlay page in place, else the
     * privatised region page. */
    std::uint8_t *mutPage(std::uint64_t page, bool overwrite_all);

    std::string name_;
    std::uint64_t size_;
    /** The region; nullptr until the first write or view. */
    std::uint8_t *base_ = nullptr;
    /** Private-page bitmap, allocated with the region. */
    std::vector<std::uint64_t> private_;
    /** Shared pages, by page number; never also private. */
    std::unordered_map<std::uint64_t, SharedPage> overlay_;
};

}  // namespace hix::mem

#endif  // HIX_MEM_PHYS_MEM_H_
