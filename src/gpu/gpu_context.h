/**
 * @file
 * Per-context GPU address spaces. Unlike pre-Volta MPS (which merges
 * all clients into one context, Section 4.5 of the paper), HIX gives
 * every user enclave its own GPU context; the context page table is
 * what isolates one user's device memory from another's.
 *
 * Kernels and the in-GPU OCB op reach VRAM through GpuMemAccessor.
 * Its read()/write()/zero() translate once per page and move each
 * physically contiguous run with one VRAM call
 * (mem::movePhysicalRuns). It also lends view()s: a range of the
 * context that maps onto adjacent VRAM pages comes back as one span
 * of VRAM, so the caller works on device memory in place. A view
 * never crosses an unmapped page, so context isolation holds by
 * construction; the contiguity check is one translate per page.
 */

#ifndef HIX_GPU_GPU_CONTEXT_H_
#define HIX_GPU_GPU_CONTEXT_H_

#include <map>
#include <span>
#include <unordered_map>

#include "common/status.h"
#include "common/types.h"
#include "mem/phys_mem.h"

namespace hix::gpu
{

/**
 * One GPU context: a GPU-virtual to VRAM-physical page map.
 */
class GpuContext
{
  public:
    explicit GpuContext(GpuContextId id) : id_(id) {}

    GpuContextId id() const { return id_; }

    /** Map @p bytes starting at page-aligned addresses; a range that
     * wraps past 2^64 on either side is an InvalidArgument. */
    Status map(Addr gpu_va, Addr vram_pa, std::uint64_t bytes);

    /** Unmap @p bytes starting at @p gpu_va (same wrap check). */
    Status unmap(Addr gpu_va, std::uint64_t bytes);

    /** Translate one GPU-virtual address. */
    Result<Addr> translate(Addr gpu_va) const;

    /** All VRAM pages currently mapped (for teardown scrubbing). */
    std::vector<Addr> mappedVramPages() const;

    std::size_t pageCount() const { return pages_.size(); }

  private:
    GpuContextId id_;
    std::unordered_map<Addr, Addr> pages_;  // gpu va page -> vram page
};

/**
 * Accessor for context-translated device memory; kernels use this to
 * touch VRAM so that all their traffic respects context isolation.
 */
class GpuMemAccessor
{
  public:
    GpuMemAccessor(const GpuContext *ctx, mem::PhysMem *vram)
        : ctx_(ctx), vram_(vram)
    {}

    /**
     * The reference accessor: it lends no views, so every kernel
     * array takes the per-page copy path. Differential tests launch
     * kernels through it as the oracle for the view path.
     */
    static GpuMemAccessor
    perPage(const GpuContext *ctx, mem::PhysMem *vram)
    {
        GpuMemAccessor mem(ctx, vram);
        mem.lend_views_ = false;
        return mem;
    }

    Status read(Addr gpu_va, std::uint8_t *data, std::size_t len) const;
    Status write(Addr gpu_va, const std::uint8_t *data,
                 std::size_t len) const;

    /**
     * [gpu_va, gpu_va + len) as one writable span of VRAM. An empty
     * range is an empty span; every other range of a perPage()
     * accessor fails with FailedPrecondition, and one longer than the
     * VRAM with InvalidArgument. Otherwise the pages are checked in
     * order: an unmapped page fails like read(); a page that does not
     * follow its predecessor in VRAM (or a range that wraps the VA
     * space) fails with FailedPrecondition. The span reads what
     * read() would and stays valid until the next scrub of the VRAM.
     */
    Result<std::span<std::uint8_t>> view(Addr gpu_va,
                                         std::size_t len) const;

    /** Zero @p len bytes at @p gpu_va; on a fault at an unmapped
     * page the pages before it stay zeroed. */
    Status zero(Addr gpu_va, std::uint64_t len) const;

    /** Size of the VRAM behind this accessor. */
    std::uint64_t vramSize() const { return vram_->size(); }

    /** Typed helpers for kernel implementations. */
    Result<std::uint32_t> read32(Addr gpu_va) const;
    Status write32(Addr gpu_va, std::uint32_t value) const;

    /** Bulk vector helpers. */
    Result<Bytes> readBytes(Addr gpu_va, std::size_t len) const;
    Status writeBytes(Addr gpu_va, const Bytes &data) const;

  private:
    const GpuContext *ctx_;
    mem::PhysMem *vram_;
    bool lend_views_ = true;
};

}  // namespace hix::gpu

#endif  // HIX_GPU_GPU_CONTEXT_H_
