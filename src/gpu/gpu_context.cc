#include "gpu/gpu_context.h"

#include <cstring>

namespace hix::gpu
{

namespace
{

/** Pages spanned by @p bytes (overflow-safe round-up). */
std::uint64_t
pagesOf(std::uint64_t bytes)
{
    return bytes / mem::PageSize + (bytes % mem::PageSize != 0);
}

/** True when the @p npages pages from @p base run past 2^64. */
bool
wrapsPastTop(Addr base, std::uint64_t npages)
{
    return npages > 0 &&
           mem::pageBase(base) >
               ~Addr(0) - (npages * mem::PageSize - 1);
}

}  // namespace

Status
GpuContext::map(Addr gpu_va, Addr vram_pa, std::uint64_t bytes)
{
    if (!mem::pageAligned(gpu_va) || !mem::pageAligned(vram_pa))
        return errInvalidArgument("GPU map: unaligned address");
    const std::uint64_t npages = pagesOf(bytes);
    if (wrapsPastTop(gpu_va, npages) || wrapsPastTop(vram_pa, npages))
        return errInvalidArgument("GPU map: range wraps past 2^64");
    for (std::uint64_t i = 0; i < npages; ++i) {
        Addr va = gpu_va + i * mem::PageSize;
        if (pages_.count(va))
            return errAlreadyExists("GPU va page already mapped");
    }
    for (std::uint64_t i = 0; i < npages; ++i)
        pages_[gpu_va + i * mem::PageSize] = vram_pa + i * mem::PageSize;
    return Status::ok();
}

Status
GpuContext::unmap(Addr gpu_va, std::uint64_t bytes)
{
    const std::uint64_t npages = pagesOf(bytes);
    if (wrapsPastTop(gpu_va, npages))
        return errInvalidArgument("GPU unmap: range wraps past 2^64");
    for (std::uint64_t i = 0; i < npages; ++i) {
        if (pages_.erase(gpu_va + i * mem::PageSize) == 0)
            return errNotFound("GPU va page not mapped");
    }
    return Status::ok();
}

Result<Addr>
GpuContext::translate(Addr gpu_va) const
{
    auto it = pages_.find(mem::pageBase(gpu_va));
    if (it == pages_.end())
        return errAccessFault("GPU page fault in context " +
                              std::to_string(id_));
    return it->second + mem::pageOffset(gpu_va);
}

std::vector<Addr>
GpuContext::mappedVramPages() const
{
    std::vector<Addr> out;
    out.reserve(pages_.size());
    for (const auto &[va, pa] : pages_)
        out.push_back(pa);
    return out;
}

Status
GpuMemAccessor::read(Addr gpu_va, std::uint8_t *data,
                     std::size_t len) const
{
    return mem::movePhysicalRuns(
        gpu_va, len, [&](Addr va) { return ctx_->translate(va); },
        [&](Addr pa, std::uint64_t done, std::uint64_t n) {
            return vram_->readAt(pa, data + done, n);
        });
}

Status
GpuMemAccessor::write(Addr gpu_va, const std::uint8_t *data,
                      std::size_t len) const
{
    return mem::movePhysicalRuns(
        gpu_va, len, [&](Addr va) { return ctx_->translate(va); },
        [&](Addr pa, std::uint64_t done, std::uint64_t n) {
            return vram_->writeAt(pa, data + done, n);
        });
}

Result<std::span<std::uint8_t>>
GpuMemAccessor::view(Addr gpu_va, std::size_t len) const
{
    if (len == 0)
        return std::span<std::uint8_t>();
    if (!lend_views_)
        return errFailedPrecondition("per-page accessor lends no views");
    if (len > vram_->size())
        return errInvalidArgument("view larger than " +
                                  vram_->targetName());
    HIX_ASSIGN_OR_RETURN(const Addr pa, ctx_->translate(gpu_va));
    const Addr first = mem::pageBase(gpu_va);
    const std::uint64_t npages = pagesOf(mem::pageOffset(gpu_va) + len);
    if (wrapsPastTop(first, npages))
        return errFailedPrecondition("VRAM view wraps the VA space");
    for (std::uint64_t i = 1; i < npages; ++i) {
        HIX_ASSIGN_OR_RETURN(const Addr next,
                             ctx_->translate(first + i * mem::PageSize));
        if (next != mem::pageBase(pa) + i * mem::PageSize)
            return errFailedPrecondition("VRAM range not contiguous");
    }
    std::uint8_t *bytes = vram_->view(pa, len);
    if (!bytes)
        return errInvalidArgument("view beyond " + vram_->targetName() +
                                  " size");
    return std::span<std::uint8_t>(bytes, len);
}

Status
GpuMemAccessor::zero(Addr gpu_va, std::uint64_t len) const
{
    return mem::movePhysicalRuns(
        gpu_va, len, [&](Addr va) { return ctx_->translate(va); },
        [&](Addr pa, std::uint64_t, std::uint64_t n) {
            return vram_->zeroAt(pa, n);
        });
}

Result<std::uint32_t>
GpuMemAccessor::read32(Addr gpu_va) const
{
    std::uint8_t b[4];
    HIX_RETURN_IF_ERROR(read(gpu_va, b, 4));
    std::uint32_t v;
    std::memcpy(&v, b, 4);
    return v;
}

Status
GpuMemAccessor::write32(Addr gpu_va, std::uint32_t value) const
{
    std::uint8_t b[4];
    std::memcpy(b, &value, 4);
    return write(gpu_va, b, 4);
}

Result<Bytes>
GpuMemAccessor::readBytes(Addr gpu_va, std::size_t len) const
{
    Bytes out(len);
    HIX_RETURN_IF_ERROR(read(gpu_va, out.data(), len));
    return out;
}

Status
GpuMemAccessor::writeBytes(Addr gpu_va, const Bytes &data) const
{
    return write(gpu_va, data.data(), data.size());
}

}  // namespace hix::gpu
