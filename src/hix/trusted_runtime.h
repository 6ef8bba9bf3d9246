/**
 * @file
 * The HIX trusted user runtime library (Section 4.4 of the paper): a
 * CUDA-driver-API-shaped library linked into the user's enclave. It
 * hides session establishment (local attestation + three-party
 * Diffie-Hellman), request sealing, and the chunked, pipelined,
 * single-copy encrypted data path; the application just calls
 * memAlloc / memcpyHtoD / launchKernel.
 */

#ifndef HIX_HIX_TRUSTED_RUNTIME_H_
#define HIX_HIX_TRUSTED_RUNTIME_H_

#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "crypto/auth_channel.h"
#include "crypto/x25519.h"
#include "hix/gpu_enclave.h"

namespace hix::core
{

/**
 * One user application's secure GPU runtime: wraps the user process,
 * the user enclave, and the session with the GPU enclave.
 */
class TrustedRuntime
{
  public:
    /**
     * @param cpu_index hardware thread index of this user (users run
     *        on separate cores, Table 3's 4C/8T CPU).
     */
    TrustedRuntime(os::Machine *machine, GpuEnclave *gpu_enclave,
                   std::string name, std::uint16_t cpu_index = 0);

    /**
     * Build the user enclave and open the secure session: attest,
     * exchange keys with the GPU enclave and the GPU, and set up the
     * inter-enclave shared-memory ring.
     */
    Status connect();

    /** The user enclave's id (for tests). */
    EnclaveId enclaveId() const { return eid_; }
    std::uint32_t sessionId() const { return session_id_; }
    ProcessId pid() const { return pid_; }
    std::uint32_t actor() const { return actor_; }

    /** ELRANGE base of the user enclave (for protection tests). */
    static constexpr Addr UserElBase = 0x30000000;

    /**
     * Pin the GPU enclave measurement (the vendor-published
     * MRENCLAVE, obtained out of band or via remote attestation —
     * Section 5.5): connect() then refuses a GPU enclave whose
     * report carries any other measurement.
     */
    void
    pinGpuEnclaveMeasurement(const crypto::Sha256Digest &expected)
    {
        pinned_ge_measurement_ = expected;
        has_pin_ = true;
    }

    // ----- CUDA-like API -----------------------------------------------
    /** cuMemAlloc. */
    Result<Addr> memAlloc(std::uint64_t size);

    /**
     * Managed (demand-paged) allocation — the Section 5.6 future
     * work: the buffer may exceed its VRAM residency quota; the GPU
     * enclave pages encrypted, integrity-protected pages between
     * device memory and untrusted host swap. Kernels touching the
     * buffer need prefetch() first (prefetch-on-launch model).
     */
    Result<Addr> memAllocManaged(std::uint64_t size,
                                 std::uint64_t page_bytes,
                                 std::uint32_t max_resident_pages);

    /** Make a managed buffer fully resident before a kernel launch. */
    Status prefetch(Addr managed_va);

    /** cuMemFree. */
    Status memFree(Addr gpu_va);

    /**
     * cuMemcpyHtoD: seal @p data chunk-by-chunk straight into the
     * shared ring's slots; the GPU enclave single-copies each chunk
     * into the GPU where it is decrypted (Section 4.4.3's flow).
     */
    Status memcpyHtoD(Addr dst_gpu_va, const Bytes &data);

    /**
     * cuMemcpyDtoH: each chunk is opened straight out of its ring
     * slot. InvalidArgument, before any request, when @p len exceeds
     * the GPU's VRAM or @p src_gpu_va + @p len wraps.
     */
    Result<Bytes> memcpyDtoH(Addr src_gpu_va, std::uint64_t len);

    /** cuModuleGetFunction analogue. */
    Result<gpu::KernelId> loadModule(const std::string &kernel_name);

    /** cuLaunchKernel (synchronous, as in the Gdev evaluation). */
    Status launchKernel(gpu::KernelId kernel,
                        const gpu::KernelArgs &args);

    /** End the session (GPU context destroyed and scrubbed). */
    Status close();

    /** Shared-memory ring (exposed for tamper tests). */
    const os::DmaBuffer &sharedRing() const { return shared_; }

  private:
    Result<Response> roundTrip(const Request &req);
    sim::OpId recordUser(Tick duration, sim::OpKind kind,
                         std::uint64_t bytes, const char *label,
                         std::span<const sim::OpId> deps = {});
    sim::OpId
    recordUser(Tick duration, sim::OpKind kind, std::uint64_t bytes,
               const char *label, std::initializer_list<sim::OpId> deps)
    {
        return recordUser(duration, kind, bytes, label,
                          std::span<const sim::OpId>(deps.begin(),
                                                     deps.size()));
    }
    std::uint64_t functionalChunk() const;
    /** The ring's bytes [ring_off, ring_off + len), in place in RAM. */
    Result<std::uint8_t *> ringSlot(std::uint64_t ring_off,
                                    std::uint64_t len);
    /** Chunk size for a transfer touching [va, va+len): managed
     * buffers move page-by-page so paging fits any quota. */
    std::uint64_t chunkFor(Addr va, std::uint64_t len) const;

    os::Machine *machine_;
    GpuEnclave *ge_;
    std::string name_;
    ProcessId pid_ = 0;
    EnclaveId eid_ = InvalidEnclaveId;
    std::uint32_t actor_ = 0;
    sim::ResourceId cpu_;

    std::uint32_t session_id_ = 0;
    os::DmaBuffer shared_;
    std::uint64_t slot_size_ = 0;
    std::unique_ptr<crypto::AuthChannel> channel_;
    std::unique_ptr<crypto::Ocb> data_ocb_;
    std::uint64_t ctr_h2d_ = 0;
    std::uint64_t ctr_d2h_ = 0;
    /** Reused scratch so steady-state transfers never allocate. */
    crypto::SealedMessage sealed_scratch_;
    Bytes plain_scratch_;
    /** Op after which each ring slot may be reused. */
    sim::OpId ring_busy_[2] = {sim::InvalidOpId, sim::InvalidOpId};
    crypto::Sha256Digest pinned_ge_measurement_{};
    /** Managed allocations: base va -> {page bytes, total size}. */
    std::map<Addr, std::pair<std::uint64_t, std::uint64_t>> managed_;
    bool has_pin_ = false;
    bool connected_ = false;
};

}  // namespace hix::core

#endif  // HIX_HIX_TRUSTED_RUNTIME_H_
