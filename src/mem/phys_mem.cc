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

std::uint8_t *
PhysMem::privatize(std::uint64_t page, bool overwrite_all)
{
    if (!base_) {
        base_ = acquireRegion(name_, regionBytes(size_));
        private_.assign((regionBytes(size_) / PageSize + 63) / 64, 0);
    }
    std::uint8_t *dst = regionPage(page);
    if (!overwrite_all)
        std::memset(dst, 0, PageSize);
    private_[page / 64] |= std::uint64_t(1) << (page % 64);
    return dst;
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

std::uint8_t *
PhysMem::view(std::uint64_t offset, std::size_t len)
{
    return lend(offset, len, /*overwrite=*/false);
}

std::uint8_t *
PhysMem::viewForOverwrite(std::uint64_t offset, std::size_t len)
{
    return lend(offset, len, /*overwrite=*/true);
}

std::uint8_t *
PhysMem::lend(std::uint64_t offset, std::size_t len, bool overwrite)
{
    if (len == 0 || len > size_ || offset > size_ - len)
        return nullptr;
    const std::uint64_t end = offset + len;
    const std::uint64_t last = (end - 1) / PageSize;
    for (std::uint64_t page = offset / PageSize; page <= last; ++page) {
        if (!isPrivate(page))
            privatize(page, overwrite && page * PageSize >= offset &&
                                (page + 1) * PageSize <= end);
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
        // Absent pages already read as zero; a whole private page
        // drops back to absent instead of being written.
        if (isPrivate(page) && take == PageSize)
            private_[page / 64] &= ~(std::uint64_t(1) << (page % 64));
        else if (isPrivate(page))
            std::memset(regionPage(page) + pageOffset(offset), 0, take);
        offset += take;
        len -= take;
    }
    return Status::ok();
}

std::size_t
PhysMem::residentPages() const
{
    std::size_t n = 0;
    for (std::uint64_t bits : private_)
        n += std::popcount(bits);
    return n;
}

}  // namespace hix::mem
