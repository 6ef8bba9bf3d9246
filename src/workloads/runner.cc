#include "workloads/runner.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "sim/trace_export.h"

#include "hix/baseline_runtime.h"
#include "hix/trusted_runtime.h"

namespace hix::workloads
{

namespace
{

/**
 * Record-time GPU context id of a shard's HIX management context.
 * The driver derives the Volta compute-queue index from
 * ctx % gpuConcurrentContexts when an op is recorded, so the value
 * must already be congruent to the canonical merged id (0): 2^16 is
 * divisible by every power-of-two queue count the model supports.
 * User session contexts are recorded directly with their canonical
 * ids (1 + user), so only the management context needs remapping at
 * merge time.
 */
constexpr GpuContextId ShardMgmtCtx = 0x10000;

/**
 * Most sessions one run accepts. Session i records on UserCpu i, a
 * 16-bit resource index, and a device-0 HIX session's context is
 * 1 + ordinal, which must stay below ShardMgmtCtx: a 65,536th session
 * would silently share session 0's CPU and collide with the
 * management context.
 */
constexpr std::size_t MaxSessions = ShardMgmtCtx - 1;

/** Canonical merged context ids (see DESIGN.md "Parallel functional
 * execution"): baseline pre-Volta MPS merges every user into GPU
 * context 1; HIX gives the GPU enclave's management work context 0
 * and user u's session context 1 + u. In a multi-device pool every
 * device owns a disjoint block of DeviceCtxStride ids: device d's
 * management context is d * stride, its sessions d * stride + 1 +
 * ordinal, and its baseline MPS context d * stride + 1. The stride
 * is a power of two >= every supported gpuConcurrentContexts value,
 * so the record-time compute-queue index (ctx % queues) is already
 * canonical; device 0 reproduces the single-GPU ids exactly.
 */
constexpr GpuContextId CanonicalBaselineCtx = 1;
constexpr GpuContextId CanonicalMgmtCtx = 0;
constexpr GpuContextId DeviceCtxStride = GpuContextId(1) << 20;

GpuContextId
canonicalMgmtCtx(int device)
{
    return DeviceCtxStride * GpuContextId(device);
}

GpuContextId
canonicalSessionCtx(int device, int ordinal)
{
    return canonicalMgmtCtx(device) + 1 + GpuContextId(ordinal);
}

GpuContextId
canonicalBaselineCtx(int device)
{
    return canonicalMgmtCtx(device) + CanonicalBaselineCtx;
}

/**
 * Volta-mode MPS (gpuConcurrentContexts > 1): instead of the pre-Volta
 * single merged context per device, every session runs in its own
 * isolated GPU context — the same id block HIX sessions use (device
 * base + 1 + ordinal) — so per-context engine channels (compute
 * queues, DMA channels) spread sessions across distinct timing
 * resources. Context ids are recorded directly with their canonical
 * values; ctx % queues / ctx % channels is derived at record time and
 * a merge-time remap could no longer change it.
 */
bool
voltaMps(const RunConfig &config)
{
    return !config.useHix &&
           config.machine.timing.gpuConcurrentContexts > 1;
}

GpuContextId
canonicalVoltaCtx(int device, int ordinal)
{
    return canonicalBaselineCtx(device) + GpuContextId(ordinal);
}

/**
 * Placement of one session: runWorkload() records user u as
 * {u, device 0, ordinal u, admit 0}, which makes the pool path a
 * strict generalization — same ops, same ids — of the single-GPU
 * multi-user run.
 */
struct SlotSpec
{
    /** Global session index: CPU/actor identity and process name. */
    int user = 0;
    /** GPU the session is bound to. */
    int device = 0;
    /** Arrival order among the device's sessions; ordinal 0 is the
     * device's baseline MPS leader and numbers HIX session ctx ids. */
    int ordinal = 0;
    /** Open-loop admission tick (0 = start immediately). */
    Tick admitTick = 0;
};

/** One user's recorded shard, ready to merge. */
struct Shard
{
    sim::Trace trace;
    sim::Trace::AppendRemap remap;
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t iotlbHits = 0;
    /** Host ms from shard start to the recorded window opening. */
    double bootMs = 0;
    /** Host pages this shard's machine privately owned at the moment
     * the recorded window opened (startup memory cost). */
    std::uint64_t residentPages = 0;
};

using SteadyClock = std::chrono::steady_clock;

double
msBetween(SteadyClock::time_point from, SteadyClock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

/** HIX software config for one session's shard. */
core::HixConfig
shardHixConfig(const RunConfig &config, std::uint64_t scale,
               const SlotSpec &slot)
{
    core::HixConfig hix_config;
    hix_config.timingScale = scale;
    hix_config.singleCopy = config.singleCopy;
    hix_config.pipeline = config.pipeline;
    hix_config.usePio = config.usePio;
    hix_config.ctxBase = ShardMgmtCtx;
    hix_config.sessionCtxBase =
        canonicalSessionCtx(slot.device, slot.ordinal);
    return hix_config;
}

/** Recording worker-pool width (RunConfig::recordThreads) for
 *  @p sessions sessions; 1 means the calling thread records. */
int
recordWorkers(int record_threads, int sessions)
{
    // Size the worker pool to the host unless the caller forces a
    // width: more recording threads than hardware threads is pure
    // scheduling churn (measured ~15% slower than serial at 16 users
    // on one core), while min(users, cores) approaches a cores-fold
    // speedup on multicore hosts.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    const int workers =
        record_threads > 0
            ? record_threads
            : static_cast<int>(std::min<unsigned>(sessions, hw));
    return std::min(workers, sessions);
}

/**
 * Build user @p user's private machine and runtimes, run the
 * workload, and return the recorded window. The recorded op stream
 * matches what the same user records on a shared machine: per-user
 * state that differs across shards (addresses, session ids, actor
 * ids) never enters recorded op fields, and setup work that a shared
 * machine amortizes (enclave boot, MPS follower context creation)
 * happens before the window is opened.
 */
Result<Shard>
recordShard(const RunConfig &config, Workload &job,
            const SlotSpec &slot)
{
    const std::uint64_t scale = job.timingScale();
    Shard shard;
    const auto boot_start = SteadyClock::now();
    // On the heap, not on the recording thread's stack: a stack
    // Machine ran svc-gdev 8-11% slower (paired bench/e2e runs on a
    // 4-vCPU Xeon), with identical work.
    auto machine_owner = std::make_unique<os::Machine>(config.machine);
    os::Machine &machine = *machine_owner;
    job.registerKernels(machine.gpuAt(slot.device));
    const auto cpu_index = static_cast<std::uint16_t>(slot.user);
    const std::string name = "user" + std::to_string(slot.user);
    const sim::ResourceId cpu_res{sim::ResUnit::UserCpu, cpu_index};

    // Open-loop arrival: a pool session admitted at a nonzero tick
    // opens its window with one wait op on its private CPU. It is the
    // session actor's chain head, so everything the session records
    // starts at or after admitTick; closed-batch sessions (admit 0)
    // record nothing extra and stay bit-identical to runWorkload().
    auto record_admission = [&](std::uint32_t actor) {
        if (slot.admitTick > 0)
            machine.recorder().record(actor, cpu_res, slot.admitTick,
                                      sim::OpKind::Control, 0,
                                      "svc_admit");
    };

    if (!config.useHix) {
        // Unprotected Gdev in pre-Volta MPS mode: on a shared machine
        // only the device's first session (the leader) creates the
        // single merged GPU context inside the measured window;
        // followers join it. A follower shard therefore creates its
        // (private) context during setup so its window records only
        // the task init. In Volta mode (gpuConcurrentContexts > 1)
        // there is no merged context: every session creates its own
        // isolated context inside its window, with its canonical
        // device-blocked id.
        const bool volta = voltaMps(config);
        const GpuContextId canonical_ctx =
            volta ? canonicalVoltaCtx(slot.device, slot.ordinal)
                  : canonicalBaselineCtx(slot.device);
        core::BaselineRuntime rt(&machine, name, scale, cpu_index,
                                 nullptr, canonical_ctx, slot.device);
        if (!volta && slot.ordinal > 0)
            HIX_RETURN_IF_ERROR(rt.precreateContext());
        shard.bootMs = msBetween(boot_start, SteadyClock::now());
        shard.residentPages = machine.residentPages();
        machine.clearTrace();
        if (config.shardHook)
            config.shardHook(slot.user, machine);
        record_admission(rt.actor());
        HIX_RETURN_IF_ERROR(rt.init());
        BaselineApi api(&rt);
        HIX_RETURN_IF_ERROR(job.run(api));
        shard.remap.gpuCtx = {{rt.gpuContext(), canonical_ctx}};
        shard.tlbHits = machine.mmu().tlbHits();
        shard.tlbMisses = machine.mmu().tlbMisses();
        shard.iotlbHits = machine.iommu().iotlbHits();
        shard.trace = machine.takeTrace();
        return shard;
    }

    // HIX secure path: a private GPU enclave per shard. Boot is a
    // per-machine one-time cost outside the window (matching the
    // paper's per-application timing), so only session setup and the
    // workload are recorded — the same ops a shared enclave records
    // for this user.
    auto ge = core::GpuEnclave::create(
        &machine, machine.gpuAt(slot.device).factoryBiosDigest(),
        shardHixConfig(config, scale, slot), slot.device);
    if (!ge.isOk())
        return ge.status();

    core::TrustedRuntime rt(&machine, ge->get(), name, cpu_index);
    shard.bootMs = msBetween(boot_start, SteadyClock::now());
    shard.residentPages = machine.residentPages();
    machine.clearTrace();
    if (config.shardHook)
        config.shardHook(slot.user, machine);
    record_admission(rt.actor());
    HIX_RETURN_IF_ERROR(rt.connect());
    TrustedApi api(&rt);
    HIX_RETURN_IF_ERROR(job.run(api));

    auto session_ctx = (*ge)->sessionGpuContext(rt.sessionId());
    if (!session_ctx.isOk())
        return session_ctx.status();
    shard.remap.gpuCtx = {
        {(*ge)->mgmtContext(), canonicalMgmtCtx(slot.device)},
        {*session_ctx,
         canonicalSessionCtx(slot.device, slot.ordinal)},
    };
    shard.tlbHits = machine.mmu().tlbHits();
    shard.tlbMisses = machine.mmu().tlbMisses();
    shard.iotlbHits = machine.iommu().iotlbHits();
    shard.trace = machine.takeTrace();
    return shard;
}

/** The lowest-index failed shard's status, or Ok: deterministic error
 *  reporting, whichever recording worker failed first. */
Status
firstFailure(const std::vector<Result<Shard>> &shards)
{
    for (const auto &shard : shards)
        if (!shard.isOk())
            return shard.status();
    return Status::ok();
}

}  // namespace

Result<PoolOutcome>
runSessionPool(const RunConfig &config,
               const std::vector<PoolSession> &sessions)
{
    if (sessions.empty())
        return errInvalidArgument("no sessions to run");
    if (sessions.size() > MaxSessions)
        return errInvalidArgument("more than 65535 sessions in one run");
    HIX_RETURN_IF_ERROR(os::Machine::checkLayout(config.machine));
    const int devices = std::max(1, config.machine.gpuCount);
    for (const auto &s : sessions) {
        if (s.device < 0 || s.device >= devices)
            return errInvalidArgument(
                "session placed on a device the machine lacks");
        if (!s.factory && !config.factory)
            return errInvalidArgument("no workload factory");
    }

    const int n = static_cast<int>(sessions.size());
    // One workload instance per session; ordinals number each
    // device's sessions in session order (ordinal 0 = MPS leader).
    std::vector<std::unique_ptr<Workload>> jobs;
    jobs.reserve(n);
    std::vector<SlotSpec> slots(n);
    std::vector<int> placed(devices, 0);
    for (int i = 0; i < n; ++i) {
        const PoolSession &s = sessions[i];
        jobs.push_back(s.factory ? s.factory() : config.factory());
        if (!jobs.back())
            return errInvalidArgument("workload factory returned none");
        slots[i] =
            SlotSpec{i, s.device, placed[s.device]++, s.admitTick};
    }

    const auto record_start = SteadyClock::now();
    std::vector<Result<Shard>> shards;
    shards.reserve(n);
    for (int i = 0; i < n; ++i)
        shards.push_back(errInternal("shard not recorded"));

    // Worker w records sessions w, w + workers, ... Shards share no
    // mutable state (each has a private machine and trace, and seals
    // and opens its transfers on its own worker thread), and each
    // worker writes only its own shard slots, so the vector needs no
    // synchronization beyond the joins.
    const int workers = recordWorkers(config.recordThreads, n);
    auto record = [&](int w) {
        for (int i = w; i < n; i += workers)
            shards[i] = recordShard(config, *jobs[i], slots[i]);
    };
    if (workers == 1) {
        record(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(workers);
        for (int w = 0; w < workers; ++w)
            threads.emplace_back(record, w);
        for (auto &thread : threads)
            thread.join();
    }
    const auto record_end = SteadyClock::now();

    HIX_RETURN_IF_ERROR(firstFailure(shards));
    // Merge in session-index order and fold the per-shard counters;
    // ranges[i] is session i's [begin, end) op-id range in the merged
    // trace.
    PoolOutcome pool;
    RunOutcome &run = pool.run;
    sim::Trace merged;
    std::size_t total_ops = 0;
    for (const auto &shard : shards)
        total_ops += shard->trace.size();
    merged.reserve(total_ops);
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    ranges.reserve(n);
    for (auto &shard : shards) {
        const std::size_t begin = merged.size();
        merged.append(shard->trace, shard->remap);
        ranges.emplace_back(begin, merged.size());
        run.tlbHits += shard->tlbHits;
        run.tlbMisses += shard->tlbMisses;
        run.iotlbHits += shard->iotlbHits;
        run.hostBootMs += shard->bootMs;
        run.residentPages += shard->residentPages;
    }
    run.schedulerConfig.gpuCtxSwitchTicks =
        config.machine.timing.gpuCtxSwitch;
    run.schedule = sim::scheduleWith(config.schedulerEngine, merged,
                                     run.schedulerConfig);
    run.ticks = run.schedule.makespan;
    run.gpuCtxSwitches = run.schedule.gpuCtxSwitches;
    if (!config.traceJsonPath.empty()) {
        std::ofstream file(config.traceJsonPath);
        sim::exportChromeTrace(merged, run.schedule, file);
        file.close();
        if (!file)
            return errUnavailable("cannot write trace JSON to " +
                                  config.traceJsonPath);
    }
    if (config.keepTrace)
        run.trace = std::make_shared<sim::Trace>(std::move(merged));
    run.hostRecordMs = msBetween(record_start, record_end);
    run.hostScheduleMs = msBetween(record_end, SteadyClock::now());

    pool.sessionFinish.assign(n, 0);
    pool.sessionOps.assign(n, 0);
    for (int i = 0; i < n; ++i) {
        const auto [begin, end] = ranges[i];
        pool.sessionOps[i] = end - begin;
        Tick fin = 0;
        for (std::size_t op = begin; op < end; ++op)
            fin = std::max(fin, run.schedule.finish[op]);
        pool.sessionFinish[i] = fin;
    }
    return pool;
}

Result<RunOutcome>
runWorkload(const RunConfig &config)
{
    if (config.users < 1)
        return errInvalidArgument("users must be >= 1");
    auto pool = runSessionPool(
        config, std::vector<PoolSession>(config.users, PoolSession{}));
    if (!pool.isOk())
        return pool.status();
    return std::move(pool->run);
}

Result<RunOutcome>
runBaseline(const std::function<std::unique_ptr<Workload>()> &factory,
            int users)
{
    RunConfig config;
    config.factory = factory;
    config.users = users;
    config.useHix = false;
    return runWorkload(config);
}

Result<RunOutcome>
runHix(const std::function<std::unique_ptr<Workload>()> &factory,
       int users)
{
    RunConfig config;
    config.factory = factory;
    config.users = users;
    config.useHix = true;
    return runWorkload(config);
}

}  // namespace hix::workloads
