/**
 * @file
 * Built-in fuzz targets for the deterministic runner: protocol
 * parsing, AuthChannel seal/open framing, and MMU/IOMMU/PhysMem
 * mapping state, each validated against a shadow model.
 */

#ifndef HIX_TESTING_FUZZ_TARGETS_H_
#define HIX_TESTING_FUZZ_TARGETS_H_

#include "testing/fuzz.h"

namespace hix::harness
{

/** Protocol encode/decode roundtrip + mutation robustness. */
FuzzTarget protocolFuzzTarget();

/** AuthChannel framing: delivery, tamper, replay, stream mixups. */
FuzzTarget authChannelFuzzTarget();

/** PageTable + IOMMU + PhysMem state vs a shadow model. */
FuzzTarget mappingStateFuzzTarget();

/**
 * Memory-system fast-path differential: two mirrored machines (bus +
 * RAM + page tables + validating MMU) driven by one op stream, one
 * an Mmu with the set-associative TLB and coalesced bulk copies, the
 * other the ReferenceMmu oracle with the linear TlbReference and the
 * per-page loop (tests/oracles/mem_oracles.h). Bytes, Status codes,
 * translations, TLB sizes, and hit/miss counters must stay
 * identical; bus routing is additionally checked against a linear
 * scan of the attached ranges.
 */
FuzzTarget memorySystemFuzzTarget();

/**
 * Multi-GPU routing: a 2-4 GPU PCIe fabric with per-device IOMMU
 * protection domains, driven against a per-device ownership shadow
 * model. DMA issued under device k's requester identity must resolve
 * only through domain k's table and only into k's RAM partition;
 * BAR apertures never overlap; a BAR1 write reaches exactly its
 * device's VRAM; final RAM equals the shadow byte-for-byte.
 */
FuzzTarget multiGpuRoutingFuzzTarget();

/**
 * Device views: one GPU context over a small VRAM driven by random
 * map/unmap, writes, view reads and writes, scrubs, kernel launches
 * through DeviceArrays, and recycling both memories. Each op runs on
 * a memory reached through views and on a shadow reached only
 * through the per-page copy path; statuses and bytes must agree
 * throughout.
 */
FuzzTarget deviceViewsFuzzTarget();

/**
 * IOMMU protection domains over the whole 64-bit device address
 * space: map, unmap, overwrite and translate on random (domain,
 * device page) pairs against a shadow map keyed by the pair. Device
 * pages come from the edges of 2^48, 2^63 and 2^64 as well as from
 * anywhere, so a table that let domains alias shows up as a
 * translate or map the shadow disagrees with.
 */
FuzzTarget iommuDomainsFuzzTarget();

}  // namespace hix::harness

#endif  // HIX_TESTING_FUZZ_TARGETS_H_
