#include "hix/managed_memory.h"

#include <algorithm>

#include "common/logging.h"
#include "crypto/ocb.h"

namespace hix::core
{

ManagedBuffer::ManagedBuffer(os::Machine *machine,
                             driver::GdevDriver *driver,
                             const ManagedConfig &config)
    : machine_(machine), driver_(driver), config_(config)
{
    const std::size_t npages =
        (config_.size + config_.pageBytes - 1) / config_.pageBytes;
    config_.size = npages * config_.pageBytes;
    pages_.resize(npages);
}

ManagedBuffer::~ManagedBuffer()
{
    if (!torn_down_)
        (void)teardown();
}

bool
ManagedBuffer::covers(Addr va, std::uint64_t len) const
{
    return va >= config_.baseVa &&
           va + len <= config_.baseVa + config_.size;
}

Addr
ManagedBuffer::pageVa(std::size_t index) const
{
    return config_.baseVa + index * config_.pageBytes;
}

Addr
ManagedBuffer::swapSlotPa(std::size_t index) const
{
    return config_.swap.paddr +
           index * (config_.pageBytes + crypto::OcbTagSize);
}

void
ManagedBuffer::touch(std::size_t index)
{
    lru_.remove(index);
    lru_.push_back(index);
}

std::uint32_t
ManagedBuffer::residentPages() const
{
    return static_cast<std::uint32_t>(lru_.size());
}

Status
ManagedBuffer::evictLru()
{
    if (lru_.empty())
        return errInternal("evict with no resident pages");
    const std::size_t index = lru_.front();
    lru_.pop_front();
    Page &page = pages_[index];

    // In-GPU encrypt the page into staging, then one DMA to the
    // untrusted swap slot. The counter is retained in enclave memory
    // so stale or forged swap content can never be paged back in.
    page.swapCounter = next_counter_++;
    {
        auto enc = driver_->gpuOcb(
            /*encrypt=*/true, config_.gpuCtx, config_.keySlot,
            pageVa(index), config_.stagingVa, config_.pageBytes,
            config_.nonceStream, page.swapCounter);
        if (!enc.isOk())
            return enc.status();
    }
    {
        auto dma = driver_->memcpyDtoH(
            config_.gpuCtx, config_.stagingVa, swapSlotPa(index),
            config_.pageBytes + crypto::OcbTagSize);
        if (!dma.isOk())
            return dma.status();
    }

    HIX_RETURN_IF_ERROR(driver_->unmapRange(
        config_.gpuCtx, pageVa(index), config_.pageBytes).status());
    HIX_RETURN_IF_ERROR(driver_->vram()->free(page.vramPa));
    page.resident = false;
    page.materialized = true;
    return Status::ok();
}

Status
ManagedBuffer::pageIn(std::size_t index)
{
    Page &page = pages_[index];
    if (page.resident) {
        touch(index);
        return Status::ok();
    }
    while (lru_.size() >= config_.maxResidentPages)
        HIX_RETURN_IF_ERROR(evictLru());

    HIX_ASSIGN_OR_RETURN(Addr pa,
                         driver_->vram()->alloc(config_.pageBytes));
    {
        auto map = driver_->mapRange(config_.gpuCtx, pageVa(index), pa,
                                     config_.pageBytes);
        if (!map.isOk()) {
            (void)driver_->vram()->free(pa);
            return map.status();
        }
    }
    page.vramPa = pa;

    if (page.materialized) {
        // Fetch ciphertext||tag from swap and decrypt in-GPU. A MAC
        // failure here is the paging-integrity attack being caught.
        auto dma = driver_->memcpyHtoD(
            config_.gpuCtx, swapSlotPa(index), config_.stagingVa,
            config_.pageBytes + crypto::OcbTagSize);
        if (!dma.isOk())
            return dma.status();
        auto dec = driver_->gpuOcb(
            /*encrypt=*/false, config_.gpuCtx, config_.keySlot,
            config_.stagingVa, pageVa(index), config_.pageBytes,
            config_.nonceStream, page.swapCounter);
        if (!dec.isOk()) {
            // Leave the page unmapped rather than exposing garbage.
            (void)driver_->unmapRange(config_.gpuCtx, pageVa(index),
                                      config_.pageBytes);
            (void)driver_->vram()->free(pa);
            return errIntegrityFailure(
                "managed page failed authentication on page-in "
                "(swap tampered or replayed)");
        }
    } else {
        // First touch: zero-filled page.
        auto scrub = driver_->scrub(config_.gpuCtx, pageVa(index),
                                    config_.pageBytes);
        if (!scrub.isOk())
            return scrub.status();
    }

    page.resident = true;
    lru_.push_back(index);
    return Status::ok();
}

Status
ManagedBuffer::ensureResident(Addr va, std::uint64_t len)
{
    if (len == 0)
        return Status::ok();
    if (!covers(va, len))
        return errInvalidArgument("range outside managed buffer");
    const std::size_t first =
        (va - config_.baseVa) / config_.pageBytes;
    const std::size_t last =
        (va + len - 1 - config_.baseVa) / config_.pageBytes;
    if (last - first + 1 > config_.maxResidentPages)
        return errResourceExhausted(
            "range needs more pages than the residency quota");
    for (std::size_t i = first; i <= last; ++i)
        HIX_RETURN_IF_ERROR(pageIn(i));
    return Status::ok();
}

Status
ManagedBuffer::prefetchAll()
{
    if (pages_.size() > config_.maxResidentPages)
        return errResourceExhausted(
            "buffer larger than the residency quota");
    for (std::size_t i = 0; i < pages_.size(); ++i)
        HIX_RETURN_IF_ERROR(pageIn(i));
    return Status::ok();
}

Status
ManagedBuffer::teardown()
{
    torn_down_ = true;
    for (std::size_t i = 0; i < pages_.size(); ++i) {
        Page &page = pages_[i];
        if (!page.resident)
            continue;
        (void)driver_->scrub(config_.gpuCtx, pageVa(i),
                             config_.pageBytes);
        (void)driver_->unmapRange(config_.gpuCtx, pageVa(i),
                                  config_.pageBytes);
        (void)driver_->vram()->free(page.vramPa);
        page.resident = false;
    }
    lru_.clear();
    return Status::ok();
}

}  // namespace hix::core
