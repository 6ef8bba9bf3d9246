#include "hix/trusted_runtime.h"

#include <cstring>

#include "common/logging.h"
#include "crypto/hmac.h"

namespace hix::core
{

namespace
{

constexpr Addr UserElBase = TrustedRuntime::UserElBase;
constexpr std::uint64_t UserElSize = 16 * MiB;

Status
statusFromResponse(const Response &resp)
{
    if (resp.isOk())
        return Status::ok();
    return Status(static_cast<StatusCode>(resp.code),
                  "GPU enclave rejected request");
}

}  // namespace

TrustedRuntime::TrustedRuntime(os::Machine *machine,
                               GpuEnclave *gpu_enclave, std::string name,
                               std::uint16_t cpu_index)
    : machine_(machine),
      ge_(gpu_enclave),
      name_(std::move(name)),
      cpu_{sim::ResUnit::UserCpu, cpu_index}
{
    pid_ = machine_->os().createProcess(name_);
    actor_ = machine_->nextActor();
}

std::uint64_t
TrustedRuntime::functionalChunk() const
{
    const std::uint64_t chunk =
        machine_->config().timing.pipelineChunkBytes /
        ge_->hixConfig().timingScale;
    return std::max<std::uint64_t>(chunk, mem::PageSize);
}

std::uint64_t
TrustedRuntime::chunkFor(Addr va, std::uint64_t len) const
{
    for (const auto &[base, geom] : managed_) {
        const auto &[page_bytes, size] = geom;
        if (va >= base && va + len <= base + size)
            return page_bytes;
    }
    return functionalChunk();
}

sim::OpId
TrustedRuntime::recordUser(Tick duration, sim::OpKind kind,
                           std::uint64_t bytes, const char *label,
                           std::span<const sim::OpId> deps)
{
    return machine_->recorder().record(actor_, cpu_, duration, kind,
                                       bytes, label,
                                       sim::NoGpuContext, deps);
}

Result<std::uint8_t *>
TrustedRuntime::ringSlot(std::uint64_t ring_off, std::uint64_t len)
{
    mem::PhysMem &ram = machine_->ram();
    std::uint8_t *bytes = ram.view(shared_.paddr + ring_off, len);
    if (!bytes)
        return errInvalidArgument("ring slot beyond " + ram.targetName() +
                                  " size");
    return bytes;
}

Status
TrustedRuntime::connect()
{
    if (connected_)
        return errFailedPrecondition("already connected");
    auto &m = *machine_;
    const auto &t = m.config().timing;

    // --- Build the user enclave (trusted runtime is linked inside) ----
    auto eid = m.sgx().ecreate(pid_, AddrRange(UserElBase, UserElSize));
    if (!eid.isOk())
        return eid.status();
    eid_ = *eid;
    Bytes app_code(mem::PageSize, 0);
    std::memcpy(app_code.data(), name_.data(),
                std::min<std::size_t>(name_.size(), 64));
    for (int page = 0; page < 2; ++page) {
        auto epc = m.sgx().eadd(
            eid_, UserElBase + page * mem::PageSize,
            mem::PermRead | mem::PermWrite | mem::PermExec, app_code);
        if (!epc.isOk())
            return epc.status();
        HIX_RETURN_IF_ERROR(m.os().pageTableOf(pid_)->map(
            UserElBase + page * mem::PageSize, *epc,
            mem::PermRead | mem::PermWrite | mem::PermExec));
    }
    HIX_RETURN_IF_ERROR(m.sgx().einit(eid_));

    // --- Session setup (attestation + three-party DH) ------------------
    recordUser(t.hixTaskInit + t.sessionSetup, sim::OpKind::Init, 0,
               "hix_task_init");

    Rng rng(m.config().seed ^ (0xabcd0000 + pid_));
    auto dh = crypto::X25519KeyPair::generate(rng);

    sgx::ReportData data{};
    std::memcpy(data.data(), dh.publicKey.data(), dh.publicKey.size());
    auto report = m.sgx().ereport(eid_, ge_->enclaveId(), data);
    if (!report.isOk())
        return report.status();

    // Shared-memory ring: two slots of one chunk (+tag) each.
    const std::uint64_t chunk = functionalChunk();
    slot_size_ = (chunk + crypto::OcbTagSize + mem::PageSize - 1) &
                 ~(mem::PageSize - 1);
    auto shared = m.os().allocDmaBuffer(pid_, 2 * slot_size_);
    if (!shared.isOk())
        return shared.status();
    shared_ = *shared;

    auto grant = ge_->openSession(
        *report, shared_, m.recorder().chainTail(actor_));
    if (!grant.isOk())
        return grant.status();

    // Verify the GPU enclave's report and that the key share it
    // carries is the one we received.
    HIX_RETURN_IF_ERROR(m.sgx().verifyReport(eid_, grant->geReport));
    if (has_pin_ &&
        !constantTimeEqual(grant->geReport.mrenclave.data(),
                           pinned_ge_measurement_.data(),
                           pinned_ge_measurement_.size()))
        return errAttestationFailure(
            "GPU enclave measurement does not match the pinned "
            "vendor reference");
    if (!constantTimeEqual(grant->geReport.data.data(),
                           grant->userKeyShare.data(),
                           grant->userKeyShare.size()))
        return errAttestationFailure("key share mismatch in GE report");

    crypto::X25519Key shared_key =
        crypto::x25519(dh.privateKey, grant->userKeyShare);
    Bytes secret(shared_key.begin(), shared_key.end());
    channel_ = std::make_unique<crypto::AuthChannel>(
        crypto::deriveAesKey(secret, "hix-ipc"), /*send=*/0,
        /*recv=*/1);
    data_ocb_ = std::make_unique<crypto::Ocb>(
        crypto::deriveAesKey(secret, "hix-session"));

    session_id_ = grant->sessionId;
    recordUser(t.ipcMessageLatency, sim::OpKind::Control, 0,
               "session_ready", {grant->doneOp});
    connected_ = true;
    return Status::ok();
}

Result<Response>
TrustedRuntime::roundTrip(const Request &req)
{
    if (!connected_)
        return errFailedPrecondition("not connected");
    const auto &t = machine_->config().timing;

    const Bytes req_bytes = encodeRequest(req);
    channel_->sealInto(req_bytes.data(), req_bytes.size(), nullptr, 0,
                       &sealed_scratch_);
    sim::OpId send_op = recordUser(t.gpuEnclaveDispatch,
                                   sim::OpKind::Control, 0, "req_send");
    auto outcome = ge_->request(session_id_, sealed_scratch_, send_op);
    if (!outcome.isOk())
        return outcome.status();
    recordUser(t.ipcMessageLatency, sim::OpKind::Control, 0,
               "resp_recv", {outcome->doneOp});

    HIX_RETURN_IF_ERROR(channel_->openInto(outcome->sealedResponse,
                                           nullptr, 0, &plain_scratch_));
    return decodeResponse(plain_scratch_);
}

Result<Addr>
TrustedRuntime::memAlloc(std::uint64_t size)
{
    Request req;
    req.type = ReqType::MemAlloc;
    req.args = {size};
    HIX_ASSIGN_OR_RETURN(Response resp, roundTrip(req));
    HIX_RETURN_IF_ERROR(statusFromResponse(resp));
    if (resp.vals.size() != 1)
        return errInternal("malformed MemAlloc response");
    return resp.vals[0];
}

Result<Addr>
TrustedRuntime::memAllocManaged(std::uint64_t size,
                                std::uint64_t page_bytes,
                                std::uint32_t max_resident_pages)
{
    // The shared ring's slots are one pipeline chunk; managed pages
    // move through the same slots, so they must fit.
    if (page_bytes > functionalChunk())
        return errInvalidArgument(
            "managed page larger than the pipeline chunk");
    Request req;
    req.type = ReqType::MemAllocManaged;
    req.args = {size, page_bytes, max_resident_pages};
    HIX_ASSIGN_OR_RETURN(Response resp, roundTrip(req));
    HIX_RETURN_IF_ERROR(statusFromResponse(resp));
    if (resp.vals.size() != 1)
        return errInternal("malformed MemAllocManaged response");
    managed_[resp.vals[0]] = {page_bytes, size};
    return resp.vals[0];
}

Status
TrustedRuntime::prefetch(Addr managed_va)
{
    Request req;
    req.type = ReqType::Prefetch;
    req.args = {managed_va};
    HIX_ASSIGN_OR_RETURN(Response resp, roundTrip(req));
    return statusFromResponse(resp);
}

Status
TrustedRuntime::memFree(Addr gpu_va)
{
    Request req;
    req.type = ReqType::MemFree;
    req.args = {gpu_va};
    HIX_ASSIGN_OR_RETURN(Response resp, roundTrip(req));
    return statusFromResponse(resp);
}

Status
TrustedRuntime::memcpyHtoD(Addr dst_gpu_va, const Bytes &data)
{
    const auto &t = machine_->config().timing;
    const std::uint64_t scale = ge_->hixConfig().timingScale;
    const bool pipeline = ge_->hixConfig().pipeline;
    const std::uint64_t chunk = chunkFor(dst_gpu_va, data.size());

    Request req;
    req.type = ReqType::HtoDBegin;
    req.args = {dst_gpu_va, data.size(), chunk, data.size() * scale};
    HIX_ASSIGN_OR_RETURN(Response resp, roundTrip(req));
    HIX_RETURN_IF_ERROR(statusFromResponse(resp));

    const std::uint32_t stream = GpuEnclave::streamHtoD(session_id_);

    sim::OpId last_done = sim::InvalidOpId;
    std::uint64_t off = 0;
    std::uint32_t index = 0;
    while (off < data.size()) {
        const std::uint64_t len =
            std::min<std::uint64_t>(chunk, data.size() - off);
        const int slot = index % 2;
        const std::uint64_t ring_off = slot * slot_size_;
        const std::uint64_t ctr = ++ctr_h2d_;

        // Functional: seal this chunk straight into its ring slot.
        HIX_ASSIGN_OR_RETURN(std::uint8_t *const sealed,
                             ringSlot(ring_off, len + crypto::OcbTagSize));
        data_ocb_->encryptInto(crypto::makeNonce(stream, ctr), nullptr, 0,
                               data.data() + off, len, sealed,
                               sealed + len);

        // Timing: the encryption pass. It must wait for the ring
        // slot's previous consumer; without pipelining it also waits
        // for the previous chunk to fully land in the GPU.
        sim::OpId deps[2];
        std::size_t ndeps = 0;
        if (ring_busy_[slot] != sim::InvalidOpId)
            deps[ndeps++] = ring_busy_[slot];
        if (!pipeline && last_done != sim::InvalidOpId)
            deps[ndeps++] = last_done;
        // Per-chunk fixed cost: nonce setup, sealing bookkeeping, and
        // the message-queue notification write.
        sim::OpId enc_op = recordUser(
            2 * t.gpuEnclaveDispatch +
                transferTicks(len * scale, t.cpuOcbBps),
            sim::OpKind::CryptoCpu, len * scale, "h2d_encrypt",
            std::span<const sim::OpId>(deps, ndeps));

        auto result = ge_->pushChunkHtoD(session_id_, ring_off, len,
                                         dst_gpu_va + off, ctr, enc_op);
        if (!result.isOk())
            return result.status();
        ring_busy_[slot] = result->done;
        last_done = result->done;
        off += len;
        ++index;
    }

    // Completion notification from the GPU enclave.
    recordUser(t.ipcMessageLatency, sim::OpKind::Control, 0, "h2d_done",
               std::span<const sim::OpId>(&last_done,
                                          last_done != sim::InvalidOpId
                                              ? 1
                                              : 0));
    return Status::ok();
}

Result<Bytes>
TrustedRuntime::memcpyDtoH(Addr src_gpu_va, std::uint64_t len)
{
    const auto &t = machine_->config().timing;
    const std::uint64_t scale = ge_->hixConfig().timingScale;
    const bool pipeline = ge_->hixConfig().pipeline;
    // No transfer can be larger than the GPU's VRAM; refuse before
    // asking the enclave or allocating the result.
    if (len > machine_->gpuAt(ge_->gpuIndex()).geometry().vramSize ||
        len > ~src_gpu_va)
        return errInvalidArgument(
            "DtoH length exceeds the GPU's VRAM or wraps the VA space");
    const std::uint64_t chunk = chunkFor(src_gpu_va, len);

    Request req;
    req.type = ReqType::DtoHBegin;
    req.args = {src_gpu_va, len, chunk, len * scale};
    HIX_ASSIGN_OR_RETURN(Response resp, roundTrip(req));
    HIX_RETURN_IF_ERROR(statusFromResponse(resp));
    const sim::OpId begin_op = machine_->recorder().chainTail(actor_);

    const std::uint32_t stream = GpuEnclave::streamDtoH(session_id_);

    Bytes out(len);
    std::uint64_t off = 0;
    std::uint32_t index = 0;
    sim::OpId prev_decrypt = sim::InvalidOpId;
    while (off < len) {
        const std::uint64_t clen =
            std::min<std::uint64_t>(chunk, len - off);
        const int slot = index % 2;
        const std::uint64_t ring_off = slot * slot_size_;
        const std::uint64_t ctr = ++ctr_d2h_;

        const sim::OpId ready =
            pipeline ? begin_op
                     : (prev_decrypt != sim::InvalidOpId ? prev_decrypt
                                                         : begin_op);
        auto result = ge_->pullChunkDtoH(session_id_, src_gpu_va + off,
                                         clen, ring_off, ctr, ready);
        if (!result.isOk())
            return result.status();

        // Functional: open the chunk straight out of its ring slot.
        // OCB reads each ciphertext block and the tag once, so the
        // untrusted slot is fetched once and the plaintext lands only
        // in `out`. A failed tag ends the transfer; decryptInto has
        // zeroed the chunk it was opening.
        HIX_ASSIGN_OR_RETURN(std::uint8_t *const sealed,
                             ringSlot(ring_off, clen + crypto::OcbTagSize));
        HIX_RETURN_IF_ERROR(data_ocb_->decryptInto(
            crypto::makeNonce(stream, ctr), nullptr, 0, sealed, clen,
            sealed + clen, out.data() + off));

        // Timing: CPU decryption depends on the chunk's arrival.
        prev_decrypt = recordUser(
            2 * t.gpuEnclaveDispatch +
                transferTicks(clen * scale, t.cpuOcbBps),
            sim::OpKind::CryptoCpu, clen * scale, "d2h_decrypt",
            {result->done});
        off += clen;
        ++index;
    }
    return out;
}

Result<gpu::KernelId>
TrustedRuntime::loadModule(const std::string &kernel_name)
{
    Request req;
    req.type = ReqType::LoadModule;
    req.blob.assign(kernel_name.begin(), kernel_name.end());
    HIX_ASSIGN_OR_RETURN(Response resp, roundTrip(req));
    HIX_RETURN_IF_ERROR(statusFromResponse(resp));
    if (resp.vals.size() != 1)
        return errInternal("malformed LoadModule response");
    return static_cast<gpu::KernelId>(resp.vals[0]);
}

Status
TrustedRuntime::launchKernel(gpu::KernelId kernel,
                             const gpu::KernelArgs &args)
{
    Request req;
    req.type = ReqType::LaunchKernel;
    req.args.push_back(kernel);
    req.args.insert(req.args.end(), args.begin(), args.end());
    HIX_ASSIGN_OR_RETURN(Response resp, roundTrip(req));
    return statusFromResponse(resp);
}

Status
TrustedRuntime::close()
{
    Request req;
    req.type = ReqType::CloseSession;
    HIX_ASSIGN_OR_RETURN(Response resp, roundTrip(req));
    HIX_RETURN_IF_ERROR(statusFromResponse(resp));
    connected_ = false;
    return Status::ok();
}

}  // namespace hix::core
