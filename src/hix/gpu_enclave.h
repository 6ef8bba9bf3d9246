/**
 * @file
 * The GPU enclave (Section 4.2 of the paper): the Gdev driver
 * refactored out of the OS and into an SGX enclave with sole control
 * over the GPU.
 *
 * Initialization follows the paper: ECREATE/EADD/EINIT the enclave,
 * EGCREATE to bind the GPU (engaging PCIe MMIO lockdown and snapshotting
 * the routing measurement), read and verify the GPU BIOS through the
 * expansion ROM, reset the GPU to shed any pre-existing state, EGADD
 * the MMIO pages the driver will use, and stand the driver up on an
 * EnclaveMmioPort so every device access passes the TGMR checks.
 *
 * At run time the enclave is the sole user interface to the GPU: it
 * verifies local-attestation reports, brokers the three-party
 * Diffie-Hellman exchange (user enclave / GPU enclave / GPU), serves
 * sealed control requests, and drives the single-copy encrypted data
 * path of Section 4.4.2.
 */

#ifndef HIX_HIX_GPU_ENCLAVE_H_
#define HIX_HIX_GPU_ENCLAVE_H_

#include <map>
#include <memory>
#include <optional>

#include "crypto/auth_channel.h"
#include "crypto/x25519.h"
#include "driver/gdev_driver.h"
#include "hix/managed_memory.h"
#include "hix/protocol.h"
#include "os/machine.h"

namespace hix::core
{

/** HIX software configuration. */
struct HixConfig
{
    /** Timing-size decoupling factor (see GdevConfig::timingScale). */
    std::uint64_t timingScale = 1;
    /** Single-copy data path (Section 4.4.2) vs naive double copy. */
    bool singleCopy = true;
    /** Overlap chunk encryption with transfer (Section 5.2). */
    bool pipeline = true;
    /** Move ciphertext by BAR1 programmed I/O instead of DMA. */
    bool usePio = false;
    /**
     * First GPU context id the enclave's driver hands out (see
     * GdevConfig::ctxBase). Zero draws from the process-global
     * counter; the sharded multi-user runner passes a per-shard base
     * for thread-schedule-independent context ids. The enclave's own
     * management context is the first id created, so it gets exactly
     * this value.
     */
    GpuContextId ctxBase = 0;
    /**
     * When non-zero, session s (1-based) gets GPU context id
     * sessionCtxBase + s - 1 instead of the next sequential driver
     * id. The sharded runner uses this to give the shard's single
     * session its *canonical merged* context id at record time, which
     * matters because the driver derives the Volta compute-queue
     * index (ctx % gpuConcurrentContexts) when the op is recorded —
     * a merge-time remap could no longer change it.
     */
    GpuContextId sessionCtxBase = 0;
};

/** What a session's data-plane chunk operation produced. */
struct ChunkResult
{
    /** Completion op of the in-GPU crypto (HtoD) or DMA (DtoH). */
    sim::OpId done = sim::InvalidOpId;
};

/** Outcome of a sealed control request. */
struct RequestOutcome
{
    crypto::SealedMessage sealedResponse;
    /** GPU-enclave-side completion op (for response IPC chaining). */
    sim::OpId doneOp = sim::InvalidOpId;
};

/**
 * The GPU enclave process.
 */
class GpuEnclave
{
  public:
    /**
     * Boot the GPU enclave on @p machine.
     *
     * @param expected_bios SHA-256 the vendor signed for this board's
     *        BIOS; initialization fails (AttestationFailure) when the
     *        ROM content does not match — the Section 4.2.2 check.
     */
    static Result<std::unique_ptr<GpuEnclave>> create(
        os::Machine *machine, const crypto::Sha256Digest &expected_bios,
        const HixConfig &config = HixConfig{}, int gpu_index = 0);

    /** Which machine GPU this enclave owns. */
    int gpuIndex() const { return gpu_index_; }

    /** Enclave identity (targets for local attestation). */
    EnclaveId enclaveId() const { return eid_; }
    ProcessId pid() const { return pid_; }

    /** Routing measurement snapshot taken at EGCREATE. */
    const crypto::Sha256Digest &configMeasurement() const
    {
        return config_measurement_;
    }

    const HixConfig &hixConfig() const { return config_; }
    driver::GdevDriver &gdev() { return *driver_; }

    // ----- Session management ---------------------------------------------
    /**
     * Open a session: verify the user's attestation report (whose
     * report data carries the user's DH public value), run the
     * three-party exchange, create the user's GPU context, and map
     * the user-allocated shared-memory ring.
     *
     * @param report attestation report targeted at this enclave.
     * @param shared user-allocated shared-memory ring buffer.
     * @param user_op the user's trace op this session setup follows.
     * @return {session id, g^bc for the user's key derivation}.
     */
    struct SessionGrant
    {
        std::uint32_t sessionId = 0;
        crypto::X25519Key userKeyShare{};
        /** The GPU enclave's own report (mutual attestation); its
         * report data binds userKeyShare against MITM splicing. */
        sgx::Report geReport;
        sim::OpId doneOp = sim::InvalidOpId;
    };
    Result<SessionGrant> openSession(const sgx::Report &report,
                                     const os::DmaBuffer &shared,
                                     sim::OpId user_op);

    /** Service one sealed control request. */
    Result<RequestOutcome> request(std::uint32_t session,
                                   const crypto::SealedMessage &msg,
                                   sim::OpId user_op);

    // ----- Data plane (Section 4.4.3 chunk flow) ---------------------------
    /**
     * One HtoD chunk: the user enclave has written ciphertext||tag at
     * @p ring_off in shared memory and signalled through the message
     * queue. The enclave single-copies it into the GPU and launches
     * the in-GPU decryption kernel.
     *
     * @param pt_len functional plaintext bytes in the chunk.
     * @param counter OCB nonce counter the user used.
     * @param ready_op the user's encryption op (dependency).
     */
    Result<ChunkResult> pushChunkHtoD(std::uint32_t session,
                                      std::uint64_t ring_off,
                                      std::uint64_t pt_len,
                                      Addr dst_gpu_va,
                                      std::uint64_t counter,
                                      sim::OpId ready_op);

    /**
     * One DtoH chunk: in-GPU encryption of @p pt_len bytes at
     * @p src_gpu_va, then a single copy of ciphertext||tag out to
     * @p ring_off in shared memory.
     */
    Result<ChunkResult> pullChunkDtoH(std::uint32_t session,
                                      Addr src_gpu_va,
                                      std::uint64_t pt_len,
                                      std::uint64_t ring_off,
                                      std::uint64_t counter,
                                      sim::OpId ready_op);

    /** Nonce stream ids for a session's data plane. */
    static std::uint32_t
    streamHtoD(std::uint32_t session)
    {
        return (session << 4) | 0x1;
    }
    static std::uint32_t
    streamDtoH(std::uint32_t session)
    {
        return (session << 4) | 0x2;
    }

    /**
     * Graceful termination (Section 4.2.3): abort sessions, scrub
     * the GPU, release the GECS binding, and return the GPU to the
     * OS.
     */
    Status shutdown();

    /** Number of live sessions. */
    std::size_t sessionCount() const { return sessions_.size(); }

    /** GPU context of the enclave's own management work (DH mixes,
     * staging). Exposed so the multi-user merge can remap shard-local
     * context ids to canonical ones. */
    GpuContextId mgmtContext() const { return mgmt_ctx_; }

    /** GPU context created for @p session, or NotFound. */
    Result<GpuContextId> sessionGpuContext(std::uint32_t session);

  private:
    struct Session
    {
        std::uint32_t id = 0;
        EnclaveId user = InvalidEnclaveId;
        GpuContextId gpuCtx = 0;
        std::uint32_t keySlot = 0;
        std::unique_ptr<crypto::AuthChannel> channel;
        /** Data key (shared with the user enclave and the GPU). */
        std::unique_ptr<crypto::Ocb> dataOcb;
        os::DmaBuffer shared;
        /** Logical GPU-enclave worker (timing actor) for this
         * session; the CPU resource is still shared. */
        std::uint32_t geActor = 0;
        /**
         * GPU-enclave dispatch lane (CPU resource) this session's
         * control work runs on. With gpuEnclaveLanes == 1 this is the
         * device's single enclave CPU (the paper's one GPU-enclave
         * thread); with more lanes, sessions hash across the device's
         * lane block and stop serializing on dispatch.
         */
        sim::ResourceId lane{sim::ResUnit::GpuEnclaveCpu, 0};
        /** Two GPU staging slots for pipelined chunk ingest. */
        Addr stagingVa = 0;
        std::uint64_t stagingSlotSize = 0;
        /** Completion op of the previous use of each staging slot. */
        sim::OpId slotBusy[2] = {sim::InvalidOpId, sim::InvalidOpId};
        std::uint32_t chunkIndex = 0;
        /** Demand-paged allocations (Section 5.6 future work). */
        std::vector<std::unique_ptr<ManagedBuffer>> managed;
        Addr managedVaCursor = 0x4000000000ull;
        /** Reused scratch so steady-state sealing never allocates. */
        Bytes ctScratch;
        Bytes ptScratch;

        /** The managed buffer covering [va, va+len), if any. */
        ManagedBuffer *
        managedFor(Addr va, std::uint64_t len)
        {
            for (auto &buffer : managed)
                if (buffer->covers(va, len))
                    return buffer.get();
            return nullptr;
        }
    };

    GpuEnclave(os::Machine *machine, HixConfig config, int gpu_index);

    Status initialize(const crypto::Sha256Digest &expected_bios);
    Response dispatch(Session &session, const Request &req);
    Result<Session *> sessionOf(std::uint32_t id);
    /** Record an enclave-CPU op following an IPC hop. */
    sim::OpId ipcArrival(sim::OpId user_op, const char *label,
                         std::uint32_t actor, sim::ResourceId lane);
    /** Dispatch lane (GpuEnclaveCpu resource) serving context @p ctx:
     * this device's lane block, index ctx % gpuEnclaveLanes. */
    sim::ResourceId laneFor(GpuContextId ctx) const;
    /** Stage 32 bytes into @p ctx at @p staging_va and return the VA. */
    Result<Addr> stageToGpu(const crypto::X25519Key &value,
                            GpuContextId ctx, Addr staging_va);

    os::Machine *machine_;
    HixConfig config_;
    int gpu_index_ = 0;
    ProcessId pid_ = 0;
    EnclaveId eid_ = InvalidEnclaveId;
    mem::ExecContext exec_ctx_;
    std::uint32_t actor_ = 0;
    sim::ResourceId cpu_{sim::ResUnit::GpuEnclaveCpu, 0};

    std::unique_ptr<driver::GdevDriver> driver_;
    GpuContextId mgmt_ctx_ = 0;
    Addr mgmt_staging_va_ = 0;

    crypto::X25519KeyPair dh_keys_;
    crypto::Sha256Digest config_measurement_{};
    std::map<std::uint32_t, Session> sessions_;
    std::uint32_t next_session_ = 1;
    std::uint32_t next_key_slot_ = 0;
    bool alive_ = false;
};

}  // namespace hix::core

#endif  // HIX_HIX_GPU_ENCLAVE_H_
