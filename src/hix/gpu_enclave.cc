#include "hix/gpu_enclave.h"

#include <cstring>

#include "common/logging.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace hix::core
{

namespace
{

/** ELRANGE geometry of the GPU enclave. */
constexpr Addr ElBase = 0x20000000;
constexpr std::uint64_t ElSize = 64 * MiB;
/** Where the trusted MMIO pages live inside ELRANGE. */
constexpr Addr Bar0Va = ElBase + 32 * MiB;
constexpr Addr Bar1Va = ElBase + 33 * MiB;

/** Functional chunk size under a given timing scale. */
std::uint64_t
functionalChunk(const sim::PlatformConfig &timing, std::uint64_t scale)
{
    const std::uint64_t chunk = timing.pipelineChunkBytes / scale;
    return std::max<std::uint64_t>(chunk, mem::PageSize);
}

/**
 * Bound one data-plane chunk before any DMA: its ciphertext must fit
 * one GPU staging slot, and its ring window [ring_off, ring_off +
 * ct_len) must lie inside the session's shared memory. No sum here
 * can wrap.
 */
Status
checkChunk(std::uint64_t pt_len, std::uint64_t ring_off,
           std::uint64_t slot_size, const os::DmaBuffer &shared)
{
    if (pt_len > slot_size - crypto::OcbTagSize)
        return errInvalidArgument("chunk larger than a staging slot");
    const std::uint64_t ct_len = pt_len + crypto::OcbTagSize;
    if (ring_off > shared.size || ct_len > shared.size - ring_off)
        return errInvalidArgument("chunk outside the shared ring");
    return Status::ok();
}

}  // namespace

GpuEnclave::GpuEnclave(os::Machine *machine, HixConfig config,
                       int gpu_index)
    : machine_(machine), config_(config), gpu_index_(gpu_index)
{
    // Each pool device gets its own block of modelled enclave CPUs
    // (dispatch lanes) so sessions bound to different GPUs never
    // serialize on mgmt-path work. The management path runs on lane 0
    // of the block; with gpuEnclaveLanes == 1 the block is one CPU,
    // index == gpu_index, exactly the pre-lane resource id.
    const std::uint32_t lanes = std::max<std::uint32_t>(
        1, machine_->config().timing.gpuEnclaveLanes);
    cpu_.index = sim::deviceBlockedResourceIndex(
        static_cast<std::uint32_t>(gpu_index), lanes, 0);
}

sim::ResourceId
GpuEnclave::laneFor(GpuContextId ctx) const
{
    const std::uint32_t lanes = std::max<std::uint32_t>(
        1, machine_->config().timing.gpuEnclaveLanes);
    return sim::ResourceId{
        sim::ResUnit::GpuEnclaveCpu,
        sim::deviceBlockedResourceIndex(
            static_cast<std::uint32_t>(gpu_index_), lanes, ctx)};
}

Result<std::unique_ptr<GpuEnclave>>
GpuEnclave::create(os::Machine *machine,
                   const crypto::Sha256Digest &expected_bios,
                   const HixConfig &config, int gpu_index)
{
    if (gpu_index < 0 || gpu_index >= machine->gpuCount())
        return errInvalidArgument("no such GPU");
    std::unique_ptr<GpuEnclave> enclave(
        new GpuEnclave(machine, config, gpu_index));
    Status st = enclave->initialize(expected_bios);
    if (!st.isOk())
        return st;
    return enclave;
}

Status
GpuEnclave::initialize(const crypto::Sha256Digest &expected_bios)
{
    auto &m = *machine_;
    pid_ = m.os().createProcess("gpu-enclave");
    actor_ = m.nextActor();

    // --- SGX enclave bring-up (ECREATE / EADD / EINIT) -----------------
    auto eid = m.sgx().ecreate(pid_, AddrRange(ElBase, ElSize));
    if (!eid.isOk())
        return eid.status();
    eid_ = *eid;

    // The trusted driver binary: a synthetic, deterministic image so
    // MRENCLAVE is stable across runs (what the user attests).
    Bytes driver_code(mem::PageSize);
    static const char tag[] = "HIX trusted Gdev driver v1";
    std::memcpy(driver_code.data(), tag, sizeof(tag));
    for (int page = 0; page < 4; ++page) {
        auto epc = m.sgx().eadd(eid_, ElBase + page * mem::PageSize,
                                mem::PermRead | mem::PermWrite |
                                    mem::PermExec,
                                driver_code);
        if (!epc.isOk())
            return epc.status();
        HIX_RETURN_IF_ERROR(m.os().pageTableOf(pid_)->map(
            ElBase + page * mem::PageSize, *epc,
            mem::PermRead | mem::PermWrite | mem::PermExec));
    }
    HIX_RETURN_IF_ERROR(m.sgx().einit(eid_));
    auto ctx = m.sgx().eenter(pid_, eid_);
    if (!ctx.isOk())
        return ctx.status();
    exec_ctx_ = *ctx;

    // --- EGCREATE: bind the GPU, lock PCIe routing ----------------------
    const pcie::Bdf gpu_bdf = m.gpuAt(gpu_index_).bdf();
    HIX_RETURN_IF_ERROR(m.hixExt().egcreate(eid_, gpu_bdf));
    auto measurement = m.hixExt().configMeasurement(eid_);
    if (!measurement.isOk())
        return measurement.status();
    config_measurement_ = *measurement;

    // --- GPU BIOS attestation (Section 4.2.2) ---------------------------
    const Addr rom_base =
        m.gpuAt(gpu_index_).config().expansionRomBase();
    const std::uint64_t rom_size =
        m.gpuAt(gpu_index_).config().expansionRomSize();
    crypto::Sha256 h;
    Bytes block(4096);
    for (std::uint64_t off = 0; off < rom_size; off += block.size()) {
        Bytes out;
        HIX_RETURN_IF_ERROR(m.rootComplex().routeTlp(
            pcie::Tlp::memRead(rom_base + off,
                               static_cast<std::uint32_t>(block.size())),
            &out));
        h.update(out);
    }
    crypto::Sha256Digest bios_digest = h.finalize();
    m.recorder().record(
        actor_, cpu_,
        transferTicks(rom_size, m.config().timing.mmioPioBps),
        sim::OpKind::Init, rom_size, "bios_measure");
    if (!constantTimeEqual(bios_digest.data(), expected_bios.data(),
                           bios_digest.size())) {
        return errAttestationFailure(
            "GPU BIOS digest does not match the vendor reference");
    }

    // --- EGADD the MMIO pages the driver uses, install their PTEs -------
    const Addr bar0_pa = m.gpuAt(gpu_index_).config().barBase(0);
    const Addr bar1_pa = m.gpuAt(gpu_index_).config().barBase(1);
    const std::uint64_t pio_window = 4 * MiB;
    HIX_RETURN_IF_ERROR(m.hixExt().egadd(eid_, Bar0Va, bar0_pa));
    HIX_RETURN_IF_ERROR(m.os().pageTableOf(pid_)->map(
        Bar0Va, bar0_pa, mem::PermRead | mem::PermWrite));
    for (std::uint64_t off = 0; off < pio_window;
         off += mem::PageSize) {
        HIX_RETURN_IF_ERROR(
            m.hixExt().egadd(eid_, Bar1Va + off, bar1_pa + off));
        HIX_RETURN_IF_ERROR(m.os().pageTableOf(pid_)->map(
            Bar1Va + off, bar1_pa + off,
            mem::PermRead | mem::PermWrite));
    }

    // --- Stand the driver up inside the enclave -------------------------
    driver::GdevConfig gcfg;
    gcfg.timing = m.config().timing;
    gcfg.scrubOnFree = true;  // Section 4.5: cleanse deallocations
    gcfg.timingScale = config_.timingScale;
    gcfg.actor = actor_;
    gcfg.cpuResource = cpu_;
    gcfg.pioWindowBytes = pio_window;
    gcfg.sharedVram = &m.vramAt(gpu_index_);
    gcfg.ctxBase = config_.ctxBase;
    gcfg.deviceIndex = static_cast<std::uint16_t>(gpu_index_);
    driver_ = std::make_unique<driver::GdevDriver>(
        &m.gpuAt(gpu_index_),
        std::make_unique<driver::EnclaveMmioPort>(&m.mmu(), exec_ctx_,
                                                  Bar0Va, Bar1Va),
        &m.recorder(), gcfg);

    // --- Reset the GPU to shed any pre-enclave state --------------------
    HIX_RETURN_IF_ERROR(driver_->deviceReset());

    // --- Management context + DH staging ---------------------------------
    auto mgmt = driver_->createContext();
    if (!mgmt.isOk())
        return mgmt.status();
    mgmt_ctx_ = *mgmt;
    auto staging = driver_->memAlloc(mgmt_ctx_, 2 * mem::PageSize);
    if (!staging.isOk())
        return staging.status();
    mgmt_staging_va_ = *staging;

    Rng rng(m.config().seed ^ 0x6e0c1a5e);
    dh_keys_ = crypto::X25519KeyPair::generate(rng);
    alive_ = true;
    return Status::ok();
}

sim::OpId
GpuEnclave::ipcArrival(sim::OpId user_op, const char *label,
                       std::uint32_t actor, sim::ResourceId lane)
{
    const auto &t = machine_->config().timing;
    // Trace::add drops InvalidOpId entries, so "no user op" needs no
    // special case.
    return machine_->recorder().record(
        actor, lane, t.ipcMessageLatency + t.gpuEnclaveDispatch,
        sim::OpKind::Control, 0, label, sim::NoGpuContext, {user_op});
}

Result<Addr>
GpuEnclave::stageToGpu(const crypto::X25519Key &value, GpuContextId ctx,
                       Addr staging_va)
{
    Bytes data(value.begin(), value.end());
    HIX_RETURN_IF_ERROR(driver_->writeVramPio(ctx, staging_va, data));
    return staging_va;
}

Result<GpuEnclave::SessionGrant>
GpuEnclave::openSession(const sgx::Report &report,
                        const os::DmaBuffer &shared, sim::OpId user_op)
{
    if (!alive_)
        return errUnavailable("GPU enclave terminated");
    const std::uint32_t session_actor = machine_->nextActor();
    const std::uint32_t lanes = std::max<std::uint32_t>(
        1, machine_->config().timing.gpuEnclaveLanes);
    const bool laned = lanes > 1;

    // The session's GPU context id is deterministic (pinned by
    // sessionCtxBase or the driver's next sequential id), so with
    // dispatch lanes it can be known before any op is recorded and
    // the whole handshake runs on the session's own lane.
    if (config_.sessionCtxBase != 0)
        driver_->setNextContext(config_.sessionCtxBase + next_session_ -
                                1);
    const sim::ResourceId lane =
        laned ? laneFor(driver_->nextContext()) : cpu_;
    driver_->setClient(session_actor, lane);
    ipcArrival(user_op, "open_session", session_actor, lane);

    // Local attestation (Section 4.4.1): the report's user data
    // carries the user's DH share, so a fake user cannot splice its
    // own key into a genuine report.
    HIX_RETURN_IF_ERROR(machine_->sgx().verifyReport(eid_, report));
    crypto::X25519Key user_pub;
    std::memcpy(user_pub.data(), report.data.data(), user_pub.size());

    const std::uint32_t slot =
        next_key_slot_++ %
        machine_->gpuAt(gpu_index_).geometry().numKeySlots;

    // With one lane the handshake stages through the shared
    // management context (the paper's single GPU-enclave thread).
    // With more, it stages through the session's own context so
    // concurrent handshakes on different lanes never serialize on the
    // management staging page — the context is created up front.
    GpuContextId dh_ctx = mgmt_ctx_;
    Addr dh_staging = mgmt_staging_va_;
    GpuContextId early_ctx = 0;
    if (laned) {
        auto gpu_ctx = driver_->createContext();
        if (!gpu_ctx.isOk())
            return gpu_ctx.status();
        early_ctx = *gpu_ctx;
        auto staging = driver_->memAlloc(early_ctx, 2 * mem::PageSize);
        if (!staging.isOk())
            return staging.status();
        dh_ctx = early_ctx;
        dh_staging = *staging;
    }
    const Addr mix_out = dh_staging + mem::PageSize;

    // Three-party Diffie-Hellman: the GPU participates with its own
    // scalar c held in the key slot (Section 4.4.1).
    // 1. GPU latches K = (g^ab)^c.
    crypto::X25519Key g_ab =
        crypto::x25519(dh_keys_.privateKey, user_pub);
    HIX_ASSIGN_OR_RETURN(Addr in_va,
                         stageToGpu(g_ab, dh_ctx, dh_staging));
    {
        auto r = driver_->dhSetKey(dh_ctx, slot, in_va);
        if (!r.isOk())
            return r.status();
    }
    // 2. GPU enclave obtains K = (g^ac)^b.
    HIX_ASSIGN_OR_RETURN(in_va, stageToGpu(user_pub, dh_ctx, dh_staging));
    {
        auto r = driver_->dhMix(dh_ctx, slot, in_va, mix_out);
        if (!r.isOk())
            return r.status();
    }
    auto g_ac_bytes = driver_->readVramPio(dh_ctx, mix_out,
                                           crypto::X25519KeySize);
    if (!g_ac_bytes.isOk())
        return g_ac_bytes.status();
    crypto::X25519Key g_ac;
    std::memcpy(g_ac.data(), g_ac_bytes->data(), g_ac.size());
    crypto::X25519Key shared_key =
        crypto::x25519(dh_keys_.privateKey, g_ac);

    // 3. The user will obtain K = (g^bc)^a from our share.
    HIX_ASSIGN_OR_RETURN(in_va,
                         stageToGpu(dh_keys_.publicKey, dh_ctx,
                                    dh_staging));
    {
        auto r = driver_->dhMix(dh_ctx, slot, in_va, mix_out);
        if (!r.isOk())
            return r.status();
    }
    auto g_bc_bytes = driver_->readVramPio(dh_ctx, mix_out,
                                           crypto::X25519KeySize);
    if (!g_bc_bytes.isOk())
        return g_bc_bytes.status();

    // --- Session state ----------------------------------------------------
    Session session;
    session.id = next_session_++;
    session.user = report.source;
    session.keySlot = slot;
    session.shared = shared;
    session.geActor = session_actor;
    session.lane = lane;

    Bytes secret(shared_key.begin(), shared_key.end());
    session.channel = std::make_unique<crypto::AuthChannel>(
        crypto::deriveAesKey(secret, "hix-ipc"), /*send=*/1,
        /*recv=*/0);
    session.dataOcb = std::make_unique<crypto::Ocb>(
        crypto::deriveAesKey(secret, "hix-session"));

    if (laned) {
        session.gpuCtx = early_ctx;
    } else {
        auto gpu_ctx = driver_->createContext();
        if (!gpu_ctx.isOk())
            return gpu_ctx.status();
        session.gpuCtx = *gpu_ctx;
    }

    const std::uint64_t chunk =
        functionalChunk(machine_->config().timing, config_.timingScale);
    session.stagingSlotSize =
        (chunk + crypto::OcbTagSize + mem::PageSize - 1) &
        ~(mem::PageSize - 1);
    auto staging =
        driver_->memAlloc(session.gpuCtx, 2 * session.stagingSlotSize);
    if (!staging.isOk())
        return staging.status();
    session.stagingVa = *staging;

    SessionGrant grant;
    grant.sessionId = session.id;
    std::memcpy(grant.userKeyShare.data(), g_bc_bytes->data(),
                grant.userKeyShare.size());
    // Mutual attestation: our report carries the key share so the OS
    // cannot splice a different share into the reply.
    sgx::ReportData ge_data{};
    std::memcpy(ge_data.data(), grant.userKeyShare.data(),
                grant.userKeyShare.size());
    auto ge_report =
        machine_->sgx().ereport(eid_, report.source, ge_data);
    if (!ge_report.isOk())
        return ge_report.status();
    grant.geReport = *ge_report;
    grant.doneOp = machine_->recorder().chainTail(session_actor);
    sessions_.emplace(session.id, std::move(session));
    return grant;
}

Result<GpuEnclave::Session *>
GpuEnclave::sessionOf(std::uint32_t id)
{
    auto it = sessions_.find(id);
    if (it == sessions_.end())
        return errNotFound("no such session");
    return &it->second;
}

Result<GpuContextId>
GpuEnclave::sessionGpuContext(std::uint32_t session)
{
    HIX_ASSIGN_OR_RETURN(Session *s, sessionOf(session));
    return s->gpuCtx;
}

Response
GpuEnclave::dispatch(Session &session, const Request &req)
{
    Response resp;
    switch (req.type) {
      case ReqType::MemAlloc: {
        if (req.args.size() != 1)
            return errorResponse(errInvalidArgument("MemAlloc args"));
        auto va = driver_->memAlloc(session.gpuCtx, req.args[0]);
        if (!va.isOk())
            return errorResponse(va.status());
        resp.vals.push_back(*va);
        return resp;
      }
      case ReqType::MemFree: {
        if (req.args.size() != 1)
            return errorResponse(errInvalidArgument("MemFree args"));
        Status st = driver_->memFree(session.gpuCtx, req.args[0]);
        if (!st.isOk())
            return errorResponse(st);
        return resp;
      }
      case ReqType::HtoDBegin:
      case ReqType::DtoHBegin:
        // Metadata accepted; chunks follow on the data plane.
        return resp;
      case ReqType::LaunchKernel: {
        if (req.args.empty())
            return errorResponse(
                errInvalidArgument("LaunchKernel args"));
        gpu::KernelArgs args(req.args.begin() + 1, req.args.end());
        auto r = driver_->launchKernel(
            session.gpuCtx, static_cast<gpu::KernelId>(req.args[0]),
            args);
        if (!r.isOk())
            return errorResponse(r.status());
        return resp;
      }
      case ReqType::LoadModule: {
        std::string name(req.blob.begin(), req.blob.end());
        auto kid = driver_->loadModule(name);
        if (!kid.isOk())
            return errorResponse(kid.status());
        resp.vals.push_back(*kid);
        return resp;
      }
      case ReqType::MemAllocManaged: {
        if (req.args.size() != 3)
            return errorResponse(
                errInvalidArgument("MemAllocManaged args"));
        const std::uint64_t size = req.args[0];
        const std::uint64_t page_bytes =
            req.args[1] ? req.args[1] : 64 * KiB;
        const auto max_resident =
            static_cast<std::uint32_t>(req.args[2]);
        if (size == 0 || page_bytes % mem::PageSize != 0 ||
            max_resident == 0)
            return errorResponse(
                errInvalidArgument("bad managed geometry"));

        ManagedConfig mcfg;
        mcfg.size = size;
        mcfg.pageBytes = page_bytes;
        mcfg.maxResidentPages = max_resident;
        mcfg.gpuCtx = session.gpuCtx;
        mcfg.keySlot = session.keySlot;
        mcfg.nonceStream =
            (session.id << 8) | 0x30 |
            static_cast<std::uint32_t>(session.managed.size());
        mcfg.baseVa = session.managedVaCursor;
        const std::uint64_t npages =
            (size + page_bytes - 1) / page_bytes;
        session.managedVaCursor +=
            npages * page_bytes + mem::PageSize;

        auto swap = machine_->os().allocDmaBuffer(
            pid_, npages * (page_bytes + crypto::OcbTagSize));
        if (!swap.isOk())
            return errorResponse(swap.status());
        mcfg.swap = *swap;
        auto staging = driver_->memAlloc(
            session.gpuCtx, page_bytes + crypto::OcbTagSize);
        if (!staging.isOk())
            return errorResponse(staging.status());
        mcfg.stagingVa = *staging;

        session.managed.push_back(std::make_unique<ManagedBuffer>(
            machine_, driver_.get(), mcfg));
        resp.vals.push_back(mcfg.baseVa);
        return resp;
      }
      case ReqType::Prefetch: {
        if (req.args.size() != 1)
            return errorResponse(errInvalidArgument("Prefetch args"));
        ManagedBuffer *buffer = session.managedFor(req.args[0], 1);
        if (!buffer)
            return errorResponse(
                errNotFound("no managed buffer at address"));
        Status st = buffer->prefetchAll();
        if (!st.isOk())
            return errorResponse(st);
        return resp;
      }
      case ReqType::CloseSession: {
        for (auto &buffer : session.managed)
            if (!buffer->teardown().isOk())
                return errorResponse(
                    errInternal("managed teardown failed"));
        session.managed.clear();
        Status st = driver_->destroyContext(session.gpuCtx);
        if (!st.isOk())
            return errorResponse(st);
        auto r = driver_->dhClearKey(mgmt_ctx_, session.keySlot);
        if (!r.isOk())
            return errorResponse(r.status());
        return resp;
      }
    }
    return errorResponse(errInvalidArgument("unknown request type"));
}

Result<RequestOutcome>
GpuEnclave::request(std::uint32_t session_id,
                    const crypto::SealedMessage &msg, sim::OpId user_op)
{
    if (!alive_)
        return errUnavailable("GPU enclave terminated");
    HIX_ASSIGN_OR_RETURN(Session *session, sessionOf(session_id));
    driver_->setClient(session->geActor, session->lane);
    ipcArrival(user_op, "request", session->geActor, session->lane);

    Status open_st = session->channel->openInto(msg, nullptr, 0,
                                                &session->ptScratch);
    if (!open_st.isOk())
        return open_st;
    auto req = decodeRequest(session->ptScratch);

    Response resp;
    bool close = false;
    if (!req.isOk()) {
        resp = errorResponse(req.status());
    } else {
        resp = dispatch(*session, *req);
        close = req->type == ReqType::CloseSession && resp.isOk();
    }

    RequestOutcome outcome;
    const Bytes resp_bytes = encodeResponse(resp);
    session->channel->sealInto(resp_bytes.data(), resp_bytes.size(),
                               nullptr, 0, &outcome.sealedResponse);
    outcome.doneOp = machine_->recorder().chainTail(session->geActor);
    if (close)
        sessions_.erase(session_id);
    return outcome;
}

Result<ChunkResult>
GpuEnclave::pushChunkHtoD(std::uint32_t session_id,
                          std::uint64_t ring_off, std::uint64_t pt_len,
                          Addr dst_gpu_va, std::uint64_t counter,
                          sim::OpId ready_op)
{
    if (!alive_)
        return errUnavailable("GPU enclave terminated");
    HIX_ASSIGN_OR_RETURN(Session *session, sessionOf(session_id));
    HIX_RETURN_IF_ERROR(checkChunk(pt_len, ring_off,
                                   session->stagingSlotSize,
                                   session->shared));
    driver_->setClient(session->geActor, session->lane);
    const sim::OpId notify =
        ipcArrival(ready_op, "chunk_h2d", session->geActor,
                   session->lane);
    const std::uint64_t ct_len = pt_len + crypto::OcbTagSize;
    const int slot = session->chunkIndex % 2;
    const Addr staging =
        session->stagingVa + slot * session->stagingSlotSize;
    ++session->chunkIndex;

    const Addr host_src = session->shared.paddr + ring_off;
    const std::uint32_t stream = streamHtoD(session_id);

    // Demand paging: make the destination pages resident first.
    if (ManagedBuffer *buffer = session->managedFor(dst_gpu_va, pt_len))
        HIX_RETURN_IF_ERROR(buffer->ensureResident(dst_gpu_va, pt_len));

    if (!config_.singleCopy) {
        // Naive path (the design Section 4.4.2 rejects): bounce the
        // data through the enclave with a decrypt + re-encrypt. Uses
        // the session scratch so steady state does not allocate.
        session->ctScratch.resize(ct_len);
        session->ptScratch.resize(pt_len);
        HIX_RETURN_IF_ERROR(machine_->ram().readAt(
            host_src, session->ctScratch.data(), ct_len));
        HIX_RETURN_IF_ERROR(session->dataOcb->decryptInto(
            crypto::makeNonce(stream, counter), nullptr, 0,
            session->ctScratch.data(), pt_len,
            session->ctScratch.data() + pt_len,
            session->ptScratch.data()));
        const std::uint32_t naive_stream = stream | 0x80000000u;
        session->dataOcb->encryptInto(
            crypto::makeNonce(naive_stream, counter), nullptr, 0,
            session->ptScratch.data(), pt_len,
            session->ctScratch.data(),
            session->ctScratch.data() + pt_len);
        HIX_RETURN_IF_ERROR(machine_->ram().writeAt(
            host_src, session->ctScratch.data(), ct_len));

        const auto &t = machine_->config().timing;
        const std::uint64_t nominal = pt_len * config_.timingScale;
        machine_->recorder().record(
            session->geActor, session->lane,
            2 * transferTicks(nominal, t.cpuMemcpyBps) +
                2 * transferTicks(nominal, t.cpuOcbBps),
            sim::OpKind::CryptoCpu, 2 * nominal, "naive_recrypt",
            sim::NoGpuContext, {notify});

        auto dma = driver_->memcpyHtoD(
            session->gpuCtx, host_src, staging, ct_len,
            /*async=*/true,
            {machine_->recorder().chainTail(session->geActor),
             session->slotBusy[slot]});
        if (!dma.isOk())
            return dma.status();
        auto dec = driver_->gpuOcb(false, session->gpuCtx,
                                   session->keySlot, staging,
                                   dst_gpu_va, pt_len, naive_stream,
                                   counter, /*async=*/true,
                                   {dma->gpuOp});
        if (!dec.isOk())
            return dec.status();
        session->slotBusy[slot] = dec->gpuOp;
        return ChunkResult{dec->gpuOp};
    }

    // Single-copy path (Section 4.4.2): the ciphertext moves exactly
    // once, straight from the inter-enclave shared memory into the
    // GPU, where the in-GPU kernel decrypts it.
    sim::OpId move_op = sim::InvalidOpId;
    if (config_.usePio) {
        session->ctScratch.resize(ct_len);
        HIX_RETURN_IF_ERROR(machine_->ram().readAt(
            host_src, session->ctScratch.data(), ct_len));
        HIX_RETURN_IF_ERROR(driver_->writeVramPio(
            session->gpuCtx, staging, session->ctScratch));
        move_op = machine_->recorder().chainTail(session->geActor);
    } else {
        auto dma = driver_->memcpyHtoD(
            session->gpuCtx, host_src, staging, ct_len, /*async=*/true,
            {notify, session->slotBusy[slot]});
        if (!dma.isOk())
            return dma.status();
        move_op = dma->gpuOp;
    }

    auto dec = driver_->gpuOcb(false, session->gpuCtx, session->keySlot,
                               staging, dst_gpu_va, pt_len, stream,
                               counter, /*async=*/true, {move_op});
    if (!dec.isOk())
        return dec.status();
    session->slotBusy[slot] = dec->gpuOp;
    return ChunkResult{dec->gpuOp};
}

Result<ChunkResult>
GpuEnclave::pullChunkDtoH(std::uint32_t session_id, Addr src_gpu_va,
                          std::uint64_t pt_len, std::uint64_t ring_off,
                          std::uint64_t counter, sim::OpId ready_op)
{
    if (!alive_)
        return errUnavailable("GPU enclave terminated");
    HIX_ASSIGN_OR_RETURN(Session *session, sessionOf(session_id));
    HIX_RETURN_IF_ERROR(checkChunk(pt_len, ring_off,
                                   session->stagingSlotSize,
                                   session->shared));
    driver_->setClient(session->geActor, session->lane);
    const sim::OpId notify =
        ipcArrival(ready_op, "chunk_d2h", session->geActor,
                   session->lane);
    const std::uint64_t ct_len = pt_len + crypto::OcbTagSize;
    const int slot = session->chunkIndex % 2;
    const Addr staging =
        session->stagingVa + slot * session->stagingSlotSize;
    ++session->chunkIndex;

    const Addr host_dst = session->shared.paddr + ring_off;
    const std::uint32_t stream = streamDtoH(session_id);

    // Demand paging: make the source pages resident first.
    if (ManagedBuffer *buffer = session->managedFor(src_gpu_va, pt_len))
        HIX_RETURN_IF_ERROR(buffer->ensureResident(src_gpu_va, pt_len));

    // In-GPU encryption, then a single copy out to shared memory.
    auto enc = driver_->gpuOcb(true, session->gpuCtx, session->keySlot,
                               src_gpu_va, staging, pt_len, stream,
                               counter, /*async=*/true,
                               {notify, session->slotBusy[slot]});
    if (!enc.isOk())
        return enc.status();
    auto dma = driver_->memcpyDtoH(session->gpuCtx, staging, host_dst,
                                   ct_len, /*async=*/true,
                                   {enc->gpuOp});
    if (!dma.isOk())
        return dma.status();
    session->slotBusy[slot] = dma->gpuOp;
    return ChunkResult{dma->gpuOp};
}

Status
GpuEnclave::shutdown()
{
    if (!alive_)
        return errFailedPrecondition("already terminated");
    // Abort sessions, cleanse the GPU, return it to the OS.
    for (auto &[id, session] : sessions_)
        (void)driver_->destroyContext(session.gpuCtx);
    sessions_.clear();
    HIX_RETURN_IF_ERROR(driver_->deviceReset());
    HIX_RETURN_IF_ERROR(machine_->hixExt().egrelease(eid_));
    alive_ = false;
    return Status::ok();
}

}  // namespace hix::core
