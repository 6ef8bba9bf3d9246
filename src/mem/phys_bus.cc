#include "mem/phys_bus.h"

#include <algorithm>

#include "mem/page.h"

namespace hix::mem
{

Status
PhysicalBus::attach(const AddrRange &range, BusTarget *target)
{
    if (range.empty() || target == nullptr)
        return errInvalidArgument("empty range or null target");
    for (const Mapping &m : mappings_) {
        if (m.range.overlaps(range)) {
            return errAlreadyExists("range " + range.toString() +
                                    " overlaps " + m.range.toString() +
                                    " owned by " + m.target->targetName());
        }
    }
    auto pos = std::lower_bound(
        mappings_.begin(), mappings_.end(), range.start(),
        [](const Mapping &m, Addr start) {
            return m.range.start() < start;
        });
    mappings_.insert(pos, Mapping{range, target});
    last_route_ = ~std::size_t(0);
    return Status::ok();
}

Status
PhysicalBus::detach(const AddrRange &range)
{
    auto it = std::find_if(mappings_.begin(), mappings_.end(),
                           [&](const Mapping &m) {
                               return m.range == range;
                           });
    if (it == mappings_.end())
        return errNotFound("no mapping for " + range.toString());
    mappings_.erase(it);
    last_route_ = ~std::size_t(0);
    return Status::ok();
}

const PhysicalBus::Mapping *
PhysicalBus::route(Addr addr) const
{
    if (last_route_ < mappings_.size() &&
        mappings_[last_route_].range.contains(addr))
        return &mappings_[last_route_];
    // First mapping starting after addr; the candidate is the one
    // before it (mappings are sorted and disjoint).
    auto it = std::upper_bound(mappings_.begin(), mappings_.end(), addr,
                               [](Addr a, const Mapping &m) {
                                   return a < m.range.start();
                               });
    if (it == mappings_.begin())
        return nullptr;
    --it;
    if (!it->range.contains(addr))
        return nullptr;
    last_route_ = static_cast<std::size_t>(it - mappings_.begin());
    return &*it;
}

Status
PhysicalBus::read(Addr addr, std::uint8_t *data, std::size_t len)
{
    const Mapping *m = route(addr);
    if (!m)
        return errNotFound("physical read from unmapped address");
    // Overflow-safe straddle check: addr is inside the range, so
    // range.end() - addr never wraps (unlike addr + len - 1).
    if (len > m->range.end() - addr)
        return errInvalidArgument("read straddles bus targets");
    return m->target->readAt(m->range.offsetOf(addr), data, len);
}

Status
PhysicalBus::write(Addr addr, const std::uint8_t *data, std::size_t len)
{
    const Mapping *m = route(addr);
    if (!m)
        return errNotFound("physical write to unmapped address");
    if (len > m->range.end() - addr)
        return errInvalidArgument("write straddles bus targets");
    return m->target->writeAt(m->range.offsetOf(addr), data, len);
}

Status
PhysicalBus::readPages(Addr addr, std::uint8_t *data, std::size_t len)
{
    while (len > 0) {
        const std::uint64_t in_page = PageSize - pageOffset(addr);
        const std::size_t take = std::min<std::uint64_t>(in_page, len);
        const Mapping *m = route(addr);
        if (!m)
            return errNotFound("physical read from unmapped address");
        if (take > m->range.end() - addr)
            return errInvalidArgument("read straddles bus targets");
        HIX_RETURN_IF_ERROR(
            m->target->readAt(m->range.offsetOf(addr), data, take));
        data += take;
        addr += take;
        len -= take;
    }
    return Status::ok();
}

Status
PhysicalBus::writePages(Addr addr, const std::uint8_t *data,
                        std::size_t len)
{
    while (len > 0) {
        const std::uint64_t in_page = PageSize - pageOffset(addr);
        const std::size_t take = std::min<std::uint64_t>(in_page, len);
        const Mapping *m = route(addr);
        if (!m)
            return errNotFound("physical write to unmapped address");
        if (take > m->range.end() - addr)
            return errInvalidArgument("write straddles bus targets");
        HIX_RETURN_IF_ERROR(
            m->target->writeAt(m->range.offsetOf(addr), data, take));
        data += take;
        addr += take;
        len -= take;
    }
    return Status::ok();
}

BusTarget *
PhysicalBus::targetAt(Addr addr) const
{
    const Mapping *m = route(addr);
    return m ? m->target : nullptr;
}

Result<AddrRange>
PhysicalBus::rangeAt(Addr addr) const
{
    const Mapping *m = route(addr);
    if (!m)
        return errNotFound("no target at address");
    return m->range;
}

}  // namespace hix::mem
