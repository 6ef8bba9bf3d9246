/**
 * @file
 * The CPU's SGX extension: enclave lifecycle instructions, EPC/EPCM
 * enforcement at TLB-fill time, measurement, and local attestation.
 * The HIX instruction extension (EGCREATE/EGADD, GECS/TGMR) plugs in
 * through HixExtension (hix_ext.h) and shares this unit's validator.
 */

#ifndef HIX_SGX_SGX_UNIT_H_
#define HIX_SGX_SGX_UNIT_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "mem/mmu.h"
#include "sgx/epc.h"

namespace hix::sgx
{

class HixExtension;

/** 64 bytes of caller data bound into an attestation report. */
using ReportData = std::array<std::uint8_t, 64>;

/** A local attestation report (EREPORT output). */
struct Report
{
    EnclaveId source = InvalidEnclaveId;
    crypto::Sha256Digest mrenclave{};
    ReportData data{};
    /** MAC under the *target* enclave's report key. */
    crypto::Sha256Digest mac{};
};

/** SECS: per-enclave control structure (stored in a hidden EPC page). */
struct Secs
{
    EnclaveId id = InvalidEnclaveId;
    ProcessId owner_pid = 0;
    AddrRange elrange;
    /** Measurement; final after EINIT. */
    crypto::Sha256Digest mrenclave{};
    bool initialized = false;
    /** Set when the host process was killed; the id is never reused. */
    bool dead = false;
    Addr secs_page = 0;
};

/**
 * The SGX unit. One per platform; registered with the MMU as a
 * TlbFillValidator so every translation the CPU caches passes EPCM
 * (and, via HixExtension, TGMR) checks.
 */
class SgxUnit : public mem::TlbFillValidator
{
  public:
    /**
     * @param epc_range physical range reserved for the EPC.
     * @param mmu the MMU to invalidate when enclave state changes.
     * @param seed deterministic seed for the platform secret.
     */
    SgxUnit(AddrRange epc_range, mem::Mmu *mmu, std::uint64_t seed);
    ~SgxUnit();

    SgxUnit(const SgxUnit &) = delete;
    SgxUnit &operator=(const SgxUnit &) = delete;

    // ----- Enclave lifecycle (ring-0 instructions) ---------------------
    /** ECREATE: allocate a SECS for a new enclave of @p pid. */
    Result<EnclaveId> ecreate(ProcessId pid, AddrRange elrange);

    /**
     * EADD + EEXTEND: add one page of @p content at @p vaddr (within
     * ELRANGE) and fold it into the measurement. Returns the EPC
     * physical page so the OS can install the PTE.
     */
    Result<Addr> eadd(EnclaveId enclave, Addr vaddr, std::uint8_t perms,
                      const Bytes &content);

    /** EINIT: finalize the measurement; the enclave becomes usable. */
    Status einit(EnclaveId enclave);

    /**
     * EENTER: produce the execution context for running inside the
     * enclave. Fails on dead/uninitialized enclaves or a wrong pid.
     */
    Result<mem::ExecContext> eenter(ProcessId pid, EnclaveId enclave);

    /**
     * Mark an enclave's host process killed. EPC pages stay resident
     * and unreachable (HIX relies on this for GPU lockout,
     * Section 4.2.3).
     */
    Status killEnclave(EnclaveId enclave);

    /** Graceful teardown: frees EPC pages; the id is retired. */
    Status destroyEnclave(EnclaveId enclave);

    // ----- Attestation ---------------------------------------------------
    /** EREPORT: report about @p source, MACed for @p target. */
    Result<Report> ereport(EnclaveId source, EnclaveId target,
                           const ReportData &data);

    /** Verify a report as @p target (EGETKEY + MAC check). */
    Status verifyReport(EnclaveId target, const Report &report);

    /** EGETKEY(seal): key bound to the enclave measurement. */
    Result<crypto::AesKey> sealKey(EnclaveId enclave,
                                   const std::string &label);

    // ----- Introspection -------------------------------------------------
    const Secs *secs(EnclaveId enclave) const;
    Epc &epc() { return epc_; }
    mem::Mmu *mmu() { return mmu_; }

    /** The HIX instruction extension bolted onto this unit. */
    void setHixExtension(HixExtension *ext) { hix_ext_ = ext; }
    HixExtension *hixExtension() { return hix_ext_; }

    /**
     * Platform cold reset: clears every enclave, all EPC state, and
     * the HIX extension's GECS/TGMR tables (Section 4.2.3: the GPU
     * becomes usable again only after a reboot).
     */
    void platformReset();

    // ----- TlbFillValidator ----------------------------------------------
    Status validateFill(const mem::ExecContext &ctx, Addr vpage,
                        Addr ppage, std::uint8_t perms) override;

  private:
    crypto::Sha256Digest reportKeySecret(EnclaveId enclave) const;

    Epc epc_;
    mem::Mmu *mmu_;
    Rng rng_;
    Bytes platform_secret_;
    EnclaveId next_id_ = 1;
    std::map<EnclaveId, Secs> enclaves_;
    HixExtension *hix_ext_ = nullptr;
};

}  // namespace hix::sgx

#endif  // HIX_SGX_SGX_UNIT_H_
