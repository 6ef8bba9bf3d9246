/**
 * @file
 * Per-device IOMMU protection domains: mappings live in (domain,
 * device page) keyed tables, so one device's DMA can never resolve
 * through another device's entries. Pins domain isolation for
 * map/unmap/overwrite/translate, domain-scoped IOTLB tagging (no
 * false hits across domains), and the legacy single-argument API
 * delegating to domain 0. The HighDevicePages cases pin the same
 * isolation across the whole 64-bit device address space, where a
 * table key that packed the domain above bit 48 let domains alias.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/iommu.h"
#include "mem/page.h"

namespace hix::mem
{
namespace
{

constexpr Addr DevPage = 0x4000;

TEST(IommuDomainTest, SameDevicePageIsIndependentPerDomain)
{
    Iommu iommu;
    iommu.setEnabled(true);
    ASSERT_TRUE(iommu.map(0, DevPage, 0x10000).isOk());
    ASSERT_TRUE(iommu.map(1, DevPage, 0x20000).isOk());
    ASSERT_TRUE(iommu.map(2, DevPage, 0x30000).isOk());

    EXPECT_EQ(*iommu.translate(0, DevPage + 0x10), 0x10010u);
    EXPECT_EQ(*iommu.translate(1, DevPage + 0x10), 0x20010u);
    EXPECT_EQ(*iommu.translate(2, DevPage + 0x10), 0x30010u);
    EXPECT_EQ(iommu.entryCount(), 3u);
}

TEST(IommuDomainTest, UnmappedDomainFaultsEvenWhenSiblingIsMapped)
{
    Iommu iommu;
    iommu.setEnabled(true);
    ASSERT_TRUE(iommu.map(0, DevPage, 0x10000).isOk());
    EXPECT_FALSE(iommu.translate(1, DevPage).isOk());
    // A fault in domain 1 must not have disturbed domain 0.
    EXPECT_EQ(*iommu.translate(0, DevPage), 0x10000u);
}

TEST(IommuDomainTest, UnmapIsDomainScoped)
{
    Iommu iommu;
    iommu.setEnabled(true);
    ASSERT_TRUE(iommu.map(0, DevPage, 0x10000).isOk());
    ASSERT_TRUE(iommu.map(1, DevPage, 0x20000).isOk());

    // Unmapping the page in domain 1 leaves domain 0 translating.
    ASSERT_TRUE(iommu.unmap(1, DevPage).isOk());
    EXPECT_FALSE(iommu.translate(1, DevPage).isOk());
    EXPECT_EQ(*iommu.translate(0, DevPage), 0x10000u);
    // Double-unmap in the now-empty domain reports NotFound.
    EXPECT_FALSE(iommu.unmap(1, DevPage).isOk());
}

TEST(IommuDomainTest, OverwriteRedirectsOnlyItsDomain)
{
    Iommu iommu;
    iommu.setEnabled(true);
    ASSERT_TRUE(iommu.map(0, DevPage, 0x10000).isOk());
    ASSERT_TRUE(iommu.map(1, DevPage, 0x20000).isOk());
    // Prime the IOTLB in both domains, then redirect domain 1: the
    // very next translate must see the redirect (no stale cache) and
    // domain 0 must be untouched.
    ASSERT_TRUE(iommu.translate(0, DevPage).isOk());
    ASSERT_TRUE(iommu.translate(1, DevPage).isOk());
    iommu.overwrite(1, DevPage, 0x70000);
    EXPECT_EQ(*iommu.translate(1, DevPage), 0x70000u);
    EXPECT_EQ(*iommu.translate(0, DevPage), 0x10000u);
}

TEST(IommuDomainTest, IotlbTagsIncludeTheDomain)
{
    Iommu iommu;
    iommu.setEnabled(true);
    ASSERT_TRUE(iommu.map(0, DevPage, 0x10000).isOk());
    ASSERT_TRUE(iommu.map(7, DevPage, 0x20000).isOk());

    ASSERT_TRUE(iommu.translate(0, DevPage).isOk());  // miss, fill
    const std::uint64_t hits_before = iommu.iotlbHits();
    // Same device page, different domain: must NOT hit domain 0's
    // cached entry — a false cross-domain hit would be a DMA leak.
    ASSERT_TRUE(iommu.translate(7, DevPage).isOk());
    EXPECT_EQ(iommu.iotlbHits(), hits_before);
    EXPECT_EQ(iommu.iotlbMisses(), 2u);
    // Re-translating each domain now hits its own entry.
    EXPECT_EQ(*iommu.translate(0, DevPage), 0x10000u);
    EXPECT_EQ(*iommu.translate(7, DevPage), 0x20000u);
    EXPECT_EQ(iommu.iotlbHits(), hits_before + 2);
}

TEST(IommuDomainTest, LegacyApiIsDomainZero)
{
    Iommu iommu;
    iommu.setEnabled(true);
    ASSERT_TRUE(iommu.map(DevPage, 0x10000).isOk());
    EXPECT_EQ(*iommu.translate(0, DevPage), 0x10000u);
    EXPECT_EQ(*iommu.translate(DevPage), 0x10000u);
    ASSERT_TRUE(iommu.map(3, DevPage, 0x30000).isOk());
    iommu.overwrite(DevPage, 0x50000);
    EXPECT_EQ(*iommu.translate(DevPage), 0x50000u);
    EXPECT_EQ(*iommu.translate(3, DevPage), 0x30000u);
    ASSERT_TRUE(iommu.unmap(DevPage).isOk());
    EXPECT_FALSE(iommu.translate(DevPage).isOk());
    EXPECT_EQ(*iommu.translate(3, DevPage), 0x30000u);
}

// Device pages at and above 2^48, and the one just below it.
const std::vector<Addr> HighPages = {
    (Addr{1} << 48) - PageSize,
    Addr{1} << 48,
    Addr{1} << 63,
    ~Addr{0} - PageSize + 1,
};

/** Phys page for (domain, i-th high page); distinct for every pair. */
Addr
physFor(IommuDomain domain, std::size_t i)
{
    return 0x100000 + (domain * HighPages.size() + i) * PageSize;
}

/** Translation of @p addr, or ~0 on a fault. */
Addr
translated(const Iommu &iommu, IommuDomain domain, Addr addr)
{
    auto r = iommu.translate(domain, addr);
    return r.isOk() ? *r : ~Addr{0};
}

/** An enabled IOMMU with every high page mapped in domains 0 and 1. */
void
mapHighPages(Iommu &iommu)
{
    iommu.setEnabled(true);
    for (IommuDomain d : {0, 1})
        for (std::size_t i = 0; i < HighPages.size(); ++i)
            ASSERT_TRUE(iommu.map(d, HighPages[i], physFor(d, i)).isOk())
                << "domain " << d << ", page 0x" << std::hex
                << HighPages[i];
    ASSERT_EQ(iommu.entryCount(), 2 * HighPages.size());
}

TEST(IommuDomainTest, HighDevicePagesMapAndTranslatePerDomain)
{
    Iommu iommu;
    ASSERT_NO_FATAL_FAILURE(mapHighPages(iommu));
    for (IommuDomain d : {0, 1})
        for (std::size_t i = 0; i < HighPages.size(); ++i)
            EXPECT_EQ(translated(iommu, d, HighPages[i] + 0x10),
                      physFor(d, i) + 0x10);

    // Low pages of domain 1 stay unmapped, and stay free to map.
    EXPECT_FALSE(iommu.translate(1, 0x10).isOk());
    ASSERT_TRUE(iommu.map(1, 0, 0x6000).isOk());
    EXPECT_EQ(translated(iommu, 1, 0x10), 0x6010u);
    EXPECT_EQ(translated(iommu, 0, (Addr{1} << 48) + 0x10),
              physFor(0, 1) + 0x10);
}

TEST(IommuDomainTest, HighDevicePagesUnmapPerDomain)
{
    Iommu iommu;
    ASSERT_NO_FATAL_FAILURE(mapHighPages(iommu));
    for (std::size_t i = 0; i < HighPages.size(); ++i) {
        ASSERT_TRUE(iommu.translate(0, HighPages[i]).isOk());
        ASSERT_TRUE(iommu.translate(1, HighPages[i]).isOk());
        ASSERT_TRUE(iommu.unmap(1, HighPages[i]).isOk());
        EXPECT_FALSE(iommu.translate(1, HighPages[i]).isOk());
        EXPECT_FALSE(iommu.unmap(1, HighPages[i]).isOk());
        EXPECT_EQ(translated(iommu, 0, HighPages[i]), physFor(0, i));
    }
    EXPECT_EQ(iommu.entryCount(), HighPages.size());
}

TEST(IommuDomainTest, HighDevicePagesOverwritePerDomain)
{
    Iommu iommu;
    ASSERT_NO_FATAL_FAILURE(mapHighPages(iommu));
    for (std::size_t i = 0; i < HighPages.size(); ++i) {
        ASSERT_TRUE(iommu.translate(0, HighPages[i]).isOk());
        ASSERT_TRUE(iommu.translate(1, HighPages[i]).isOk());
        iommu.overwrite(1, HighPages[i], 0x70000 + i * PageSize);
        EXPECT_EQ(translated(iommu, 1, HighPages[i]),
                  0x70000 + i * PageSize);
        EXPECT_EQ(translated(iommu, 0, HighPages[i]), physFor(0, i));
    }
    EXPECT_EQ(iommu.entryCount(), 2 * HighPages.size());
}

TEST(IommuDomainTest, HighDevicePagesIotlbCountsPerDomain)
{
    Iommu iommu;
    ASSERT_NO_FATAL_FAILURE(mapHighPages(iommu));
    // First touch of each (domain, page) misses and fills; the second
    // hits its own entry, never a sibling domain's.
    for (int pass = 0; pass < 2; ++pass)
        for (IommuDomain d : {0, 1})
            for (std::size_t i = 0; i < HighPages.size(); ++i)
                EXPECT_EQ(translated(iommu, d, HighPages[i]),
                          physFor(d, i));
    EXPECT_EQ(iommu.iotlbMisses(), 2 * HighPages.size());
    EXPECT_EQ(iommu.iotlbHits(), 2 * HighPages.size());
    EXPECT_EQ(iommu.iotlbSize(), 2 * HighPages.size());
}

TEST(IommuDomainTest, BypassModeIgnoresDomains)
{
    Iommu iommu;  // disabled: identity mapping for every requester
    EXPECT_EQ(*iommu.translate(0, 0x1234), 0x1234u);
    EXPECT_EQ(*iommu.translate(9, 0x1234), 0x1234u);
    EXPECT_EQ(iommu.iotlbHits() + iommu.iotlbMisses(), 0u);
}

}  // namespace
}  // namespace hix::mem
