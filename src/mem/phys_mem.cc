#include "mem/phys_mem.h"

#include <sys/mman.h>

#include <bit>
#include <cstring>
#include <mutex>

#include "common/logging.h"

namespace hix::mem
{

namespace
{

/**
 * Released regions, most recent last. Recording threads build and
 * destroy machines concurrently, so every access holds the mutex.
 * Leaked on purpose: a PhysMem destroyed during static destruction
 * must still find the list alive.
 */
struct RegionPool
{
    struct Free
    {
        std::uint64_t bytes;
        std::uint8_t *base;
    };
    std::mutex mu;
    std::vector<Free> free;
};

RegionPool &
regionPool()
{
    static RegionPool *pool = new RegionPool;
    return *pool;
}

std::uint64_t
regionBytes(std::uint64_t size)
{
    return (size + PageSize - 1) / PageSize * PageSize;
}

std::uint8_t *
acquireRegion(const std::string &name, std::uint64_t bytes)
{
    RegionPool &pool = regionPool();
    {
        std::lock_guard<std::mutex> lock(pool.mu);
        for (auto it = pool.free.rbegin(); it != pool.free.rend(); ++it) {
            if (it->bytes == bytes) {
                std::uint8_t *base = it->base;
                pool.free.erase(std::next(it).base());
                return base;
            }
        }
    }
    void *base = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (base == MAP_FAILED)
        hix_fatal("PhysMem ", name, ": cannot reserve ", bytes,
                  " bytes of host address space");
    return static_cast<std::uint8_t *>(base);
}

void
releaseRegion(std::uint64_t bytes, std::uint8_t *base)
{
    RegionPool &pool = regionPool();
    std::lock_guard<std::mutex> lock(pool.mu);
    pool.free.push_back({bytes, base});
}

}  // namespace

PhysMem::PhysMem(std::string name, std::uint64_t size)
    : name_(std::move(name)), size_(size)
{
}

PhysMem::~PhysMem()
{
    if (base_)
        releaseRegion(regionBytes(size_), base_);
}

const PhysMem::SharedPage *
PhysMem::overlayPage(std::uint64_t page) const
{
    if (overlay_.empty())
        return nullptr;
    auto it = overlay_.find(page);
    return it == overlay_.end() ? nullptr : &it->second;
}

const std::uint8_t *
PhysMem::peekPage(std::uint64_t page) const
{
    if (isPrivate(page))
        return regionPage(page);
    const SharedPage *shared = overlayPage(page);
    return shared ? shared->get() : nullptr;
}

std::uint8_t *
PhysMem::privatize(std::uint64_t page, bool overwrite_all)
{
    if (!base_) {
        base_ = acquireRegion(name_, regionBytes(size_));
        private_.assign((regionBytes(size_) / PageSize + 63) / 64, 0);
    }
    std::uint8_t *dst = regionPage(page);
    auto it = overlay_.find(page);
    if (!overwrite_all) {
        // A recycled region still holds its last owner's bytes.
        if (it != overlay_.end())
            std::memcpy(dst, it->second.get(), PageSize);
        else
            std::memset(dst, 0, PageSize);
    }
    if (it != overlay_.end())
        overlay_.erase(it);
    private_[page / 64] |= std::uint64_t(1) << (page % 64);
    return dst;
}

std::uint8_t *
PhysMem::mutPage(std::uint64_t page, bool overwrite_all)
{
    if (isPrivate(page))
        return regionPage(page);
    // use_count() == 1 is decisive: nobody else holds a reference, so
    // nobody can be copying from (or bumping) this page concurrently.
    const SharedPage *shared = overlayPage(page);
    if (shared && shared->use_count() == 1)
        return shared->get();
    return privatize(page, overwrite_all);
}

Status
PhysMem::readAt(std::uint64_t offset, std::uint8_t *data, std::size_t len)
{
    // Overflow-safe bound check: offset + len must not wrap.
    if (len > size_ || offset > size_ - len)
        return errInvalidArgument("read beyond " + name_ + " size");
    while (len > 0) {
        const std::uint64_t in_page = PageSize - pageOffset(offset);
        const std::size_t take = std::min<std::uint64_t>(in_page, len);
        const std::uint8_t *page = peekPage(offset / PageSize);
        if (page)
            std::memcpy(data, page + pageOffset(offset), take);
        else
            std::memset(data, 0, take);
        data += take;
        offset += take;
        len -= take;
    }
    return Status::ok();
}

Status
PhysMem::writeAt(std::uint64_t offset, const std::uint8_t *data,
                 std::size_t len)
{
    if (len > size_ || offset > size_ - len)
        return errInvalidArgument("write beyond " + name_ + " size");
    while (len > 0) {
        const std::uint64_t in_page = PageSize - pageOffset(offset);
        const std::size_t take = std::min<std::uint64_t>(in_page, len);
        std::uint8_t *page =
            mutPage(offset / PageSize, /*overwrite_all=*/take == PageSize);
        std::memcpy(page + pageOffset(offset), data, take);
        data += take;
        offset += take;
        len -= take;
    }
    return Status::ok();
}

const std::uint8_t *
PhysMem::readSpan(std::uint64_t offset, std::size_t len)
{
    // Shared zero page lent for reads of absent pages; writes never
    // see it because writeSpan materialises first.
    static const std::uint8_t zero_page[PageSize] = {};
    if (len > size_ || offset > size_ - len)
        return nullptr;
    if (len > PageSize - pageOffset(offset))
        return nullptr;
    const std::uint8_t *page = peekPage(offset / PageSize);
    if (!page)
        return zero_page + pageOffset(offset);
    return page + pageOffset(offset);
}

std::uint8_t *
PhysMem::writeSpan(std::uint64_t offset, std::size_t len)
{
    if (len > size_ || offset > size_ - len)
        return nullptr;
    if (len > PageSize - pageOffset(offset))
        return nullptr;
    return mutPage(offset / PageSize, /*overwrite_all=*/len == PageSize) +
           pageOffset(offset);
}

std::uint8_t *
PhysMem::view(std::uint64_t offset, std::size_t len)
{
    if (len == 0 || len > size_ || offset > size_ - len)
        return nullptr;
    const std::uint64_t last = (offset + len - 1) / PageSize;
    for (std::uint64_t page = offset / PageSize; page <= last; ++page) {
        if (!isPrivate(page))
            privatize(page, /*overwrite_all=*/false);
    }
    return base_ + offset;
}

Status
PhysMem::zeroAt(std::uint64_t offset, std::uint64_t len)
{
    if (len > size_ || offset > size_ - len)
        return errInvalidArgument("zero beyond " + name_ + " size");
    while (len > 0) {
        const std::uint64_t page = offset / PageSize;
        const std::uint64_t in_page = PageSize - pageOffset(offset);
        const std::uint64_t take = std::min<std::uint64_t>(in_page, len);
        if (take == PageSize) {
            // Whole page: drop back to absent (zero reads for free,
            // and a shared page is decrefed, not copied).
            if (isPrivate(page))
                private_[page / 64] &= ~(std::uint64_t(1) << (page % 64));
            overlay_.erase(page);
        } else if (peekPage(page)) {
            std::memset(mutPage(page, false) + pageOffset(offset), 0,
                        take);
        }
        offset += take;
        len -= take;
    }
    return Status::ok();
}

PhysMem::Snapshot
PhysMem::snapshot()
{
    for (std::size_t w = 0; w < private_.size(); ++w) {
        for (std::uint64_t bits = private_[w]; bits != 0;
             bits &= bits - 1) {
            const std::uint64_t page = w * 64 + std::countr_zero(bits);
            SharedPage frozen(new std::uint8_t[PageSize]);
            std::memcpy(frozen.get(), regionPage(page), PageSize);
            overlay_.emplace(page, std::move(frozen));
        }
        private_[w] = 0;
    }
    Snapshot snap;
    snap.size = size_;
    snap.pages = overlay_;  // shared_ptr copies: refcount bump only
    return snap;
}

Status
PhysMem::adopt(const Snapshot &snap)
{
    if (snap.size != size_)
        return errInvalidArgument("snapshot size mismatch for " +
                                  name_);
    std::fill(private_.begin(), private_.end(), 0);
    overlay_ = snap.pages;
    return Status::ok();
}

std::size_t
PhysMem::residentPages() const
{
    std::size_t n = 0;
    for (std::uint64_t bits : private_)
        n += std::popcount(bits);
    for (const auto &[page, shared] : overlay_)
        n += shared.use_count() == 1;
    return n;
}

std::size_t
PhysMem::sharedPages() const
{
    std::size_t n = 0;
    for (const auto &[page, shared] : overlay_)
        n += shared.use_count() > 1;
    return n;
}

}  // namespace hix::mem
