/**
 * @file
 * The HIX instruction-set extension (Section 4.2 of the paper): the
 * EGCREATE / EGADD instructions and the hidden GECS / TGMR metadata
 * they maintain, plus the TLB-fill validation that makes registered
 * GPU MMIO pages reachable only by their owning GPU enclave
 * (Section 4.3.1's four checks).
 */

#ifndef HIX_SGX_HIX_EXT_H_
#define HIX_SGX_HIX_EXT_H_

#include <map>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "mem/mmu.h"
#include "pcie/root_complex.h"

namespace hix::sgx
{

class SgxUnit;

/** GECS: GPU Enclave Control Structure (one per bound GPU). */
struct GecsEntry
{
    EnclaveId owner = InvalidEnclaveId;
    pcie::Bdf gpu;
    /** MMIO BAR apertures of the GPU, snapshot at EGCREATE. */
    std::vector<AddrRange> mmio_ranges;
    /** Measurement of routing config on the locked path. */
    crypto::Sha256Digest config_measurement{};
};

/** One TGMR (Trusted GPU MMIO Region) table entry. */
struct TgmrEntry
{
    EnclaveId owner = InvalidEnclaveId;
    Addr vpage = 0;
    Addr ppage = 0;
};

/**
 * The HIX hardware extension. Owns GECS and the TGMR table (stored in
 * hidden EPC metadata pages in the real design) and cooperates with
 * the PCIe root complex for device validation, MMIO lockdown, and
 * path measurement.
 */
class HixExtension
{
  public:
    HixExtension(SgxUnit *sgx, pcie::RootComplex *rc);

    // ----- Instructions ---------------------------------------------------
    /**
     * EGCREATE: bind @p gpu to @p enclave. Verifies the enclave is
     * initialized, the BDF names a real enumerated device (defeating
     * GPU emulation), and that neither the GPU nor the enclave is
     * already bound. Engages MMIO lockdown on the path and snapshots
     * the routing measurement.
     */
    Status egcreate(EnclaveId enclave, const pcie::Bdf &gpu);

    /**
     * EGADD: register the mapping @p vaddr -> @p mmio_paddr in the
     * TGMR. Both must be page aligned; @p vaddr must lie inside the
     * GPU enclave's ELRANGE and @p mmio_paddr inside the bound GPU's
     * BAR apertures.
     */
    Status egadd(EnclaveId enclave, Addr vaddr, Addr mmio_paddr);

    /**
     * Graceful release (the paper's cooperative termination,
     * Section 4.2.3): drops the GECS/TGMR state and lifts the
     * lockdown so the OS regains the GPU. Only callable by the
     * owning, still-live enclave.
     */
    Status egrelease(EnclaveId enclave);

    // ----- Queries --------------------------------------------------------
    bool enclaveOwnsGpu(EnclaveId enclave) const;
    bool gpuBound(const pcie::Bdf &gpu) const;
    Result<pcie::Bdf> gpuOf(EnclaveId enclave) const;
    Result<crypto::Sha256Digest> configMeasurement(
        EnclaveId enclave) const;
    std::size_t tgmrSize() const { return tgmr_.size(); }

    /** True when @p ppage falls in any bound GPU's MMIO aperture. */
    bool coversMmio(Addr ppage) const;

    /**
     * The Section 4.3.1 validation, called from the page-table
     * walker on every MMIO-page TLB fill: (1) the executing enclave
     * is the GPU enclave named in GECS, (2+3) the virtual page
     * matches the TGMR registration, and (4) the physical page
     * matches the TGMR registration.
     */
    Status validateMmioFill(const mem::ExecContext &ctx, Addr vpage,
                            Addr ppage) const;

    /** Cold-boot reset: clears GECS and TGMR (via SgxUnit). */
    void platformReset();

  private:
    const GecsEntry *gecsForMmio(Addr ppage) const;

    SgxUnit *sgx_;
    pcie::RootComplex *rc_;
    std::vector<GecsEntry> gecs_;
    /** Keyed by (owner, vpage). */
    std::map<std::pair<EnclaveId, Addr>, TgmrEntry> tgmr_;
};

}  // namespace hix::sgx

#endif  // HIX_SGX_HIX_EXT_H_
