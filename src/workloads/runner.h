/**
 * @file
 * Experiment runner: executes a workload on the requested
 * configuration (unprotected Gdev baseline or HIX; 1..N concurrent
 * users) and returns the scheduled simulated time. This is the
 * harness behind every figure-reproducing bench.
 *
 * Functional execution is sharded per session: every session gets a
 * private modelled machine (and, for HIX, a private GPU enclave) and
 * records into a private sim::Trace on one of RunConfig::recordThreads
 * workers; the shards are merged in session-index order with
 * canonical GPU context ids, then scored in one scheduler pass. See
 * DESIGN.md "Parallel functional execution" for why the
 * merged trace is bit-identical to a serial recording.
 *
 * runWorkload() is runSessionPool() over `users` closed-batch
 * sessions on device 0. That one recording loop records and scores
 * every run, with the same traceDigest() and ScheduleResult fields at
 * every recording thread count.
 */

#ifndef HIX_WORKLOADS_RUNNER_H_
#define HIX_WORKLOADS_RUNNER_H_

#include <functional>
#include <memory>
#include <string>

#include "hix/gpu_enclave.h"
#include "os/machine.h"
#include "sim/scheduler.h"
#include "workloads/workload.h"

namespace hix::workloads
{

/** What to run and how. */
struct RunConfig
{
    /** Fresh workload instance per user. */
    std::function<std::unique_ptr<Workload>()> factory;
    /** Number of concurrent users (Figures 8/9 use 2 and 4). */
    int users = 1;
    /** true = HIX secure path, false = unprotected Gdev. */
    bool useHix = true;
    /** Data-path knobs (single-copy / pipelining / PIO ablations). */
    bool singleCopy = true;
    bool pipeline = true;
    bool usePio = false;
    /** Machine configuration (timing parameters). */
    os::MachineConfig machine{};
    /**
     * When non-empty, write the scheduled trace as Chrome trace-event
     * JSON (chrome://tracing / Perfetto) to this path. A path that
     * cannot be written fails the run with Unavailable.
     */
    std::string traceJsonPath;
    /**
     * Keep a copy of the recorded op trace in the outcome. Used by the
     * golden-equivalence tests and the scheduler bench, which replay
     * real workload traces through both scheduler engines.
     */
    bool keepTrace = false;
    /**
     * Recording workers. 0 (the default) sizes the pool to
     * min(sessions, hardware_concurrency), so an over-tenanted run
     * never oversubscribes the host; 1 records every shard serially
     * on the calling thread; N > 1 forces N worker threads (capped at
     * the session count; the determinism tests force one thread per
     * user so TSan sees the full interleaving even on small CI
     * machines). Worker w records sessions w, w + workers, ... — a
     * static assignment, so no scheduling decision can leak into the
     * result; shards are merged by session index regardless of which
     * worker recorded them, so every width yields the same
     * traceDigest and ticks.
     */
    int recordThreads = 0;
    /**
     * Test hook, called for every user shard on that shard's
     * recording thread after the machine and runtimes are built and
     * the trace is cleared, just before the recorded window begins.
     * Used to attach per-shard TraceRecorder observers; the machine
     * reference is only valid during the call and the shard's run.
     */
    std::function<void(int user, os::Machine &machine)> shardHook;
    /**
     * Which scheduling engine scores the merged trace. Both engines
     * are bit-identical (the golden suites enforce it); Reference is
     * the quadratic oracle, for tests.
     */
    sim::SchedulerEngine schedulerEngine = sim::SchedulerEngine::Fast;
};

/** Result of one run. */
struct RunOutcome
{
    /** End-to-end simulated time (task init through completion). */
    Tick ticks = 0;
    /** Full schedule, for breakdowns. */
    sim::ScheduleResult schedule;
    /** GPU context switches charged (multi-user analysis). */
    std::uint64_t gpuCtxSwitches = 0;
    /**
     * CPU TLB and IOTLB traffic summed over all user shards (each
     * shard runs on a private machine). Exported into the bench JSON
     * rows so memory-system regressions show up next to the timing
     * they would eventually distort.
     */
    std::uint64_t tlbHits = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t iotlbHits = 0;
    /** Recorded op trace (only when RunConfig::keepTrace is set). */
    std::shared_ptr<const sim::Trace> trace;
    /** Scheduler configuration the run was scored with. */
    sim::SchedulerConfig schedulerConfig;
    /**
     * Host wall-clock of the two stages of a run: recording (until
     * the last shard is recorded) and the scoring tail — merge,
     * schedule, export.
     */
    double hostRecordMs = 0;
    double hostScheduleMs = 0;
    /**
     * Host wall-clock spent on session startup: the sum over all user
     * shards of the setup time before each recorded window opens
     * (machine boot, kernel registration, enclave create or MPS
     * follower context precreation).
     */
    double hostBootMs = 0;
    /**
     * Host pages materialised by the user shards' machines (DRAM +
     * VRAM), summed over shards and measured as each shard's recorded
     * window opens — the memory cost of standing the session up: every
     * page boot touched. Divide by users for the bench's
     * resident_pages_per_session.
     */
    std::uint64_t residentPages = 0;

    double
    milliseconds() const
    {
        return ticksToMs(ticks);
    }
};

/**
 * One session of a multi-device pool run. The service layer
 * (src/svc) admits and places sessions, then hands the placement to
 * runSessionPool() for recording and scheduling.
 */
struct PoolSession
{
    /** GPU the session is bound to (index into the machine's pool). */
    int device = 0;
    /**
     * Open-loop admission time: the session's recorded window starts
     * with a synthetic wait op of this duration on the session's
     * private CPU, so everything it does is scheduled at or after
     * this tick. 0 (closed batch) records no extra op — a 1-device
     * pool of zero-admit sessions is bit-identical to runWorkload().
     */
    Tick admitTick = 0;
    /**
     * Caller's label for the session's application (the service layer
     * stores its app-mix index). runSessionPool() does not read it.
     */
    int appId = 0;
    /** Per-session workload; null falls back to RunConfig::factory. */
    std::function<std::unique_ptr<Workload>()> factory;
};

/** runSessionPool() result: the usual outcome plus per-session
 *  completion data for latency percentiles. */
struct PoolOutcome
{
    RunOutcome run;
    /** Absolute finish tick of each session's last scheduled op,
     * indexed like the input sessions vector. */
    std::vector<Tick> sessionFinish;
    /** Recorded ops per session (dispatch-queue accounting). */
    std::vector<std::uint64_t> sessionOps;
};

/**
 * Record and schedule a pre-placed multi-device session set. Each
 * session gets the usual private-machine shard treatment, but bound
 * to its placed device: per-device BARs, VRAM allocator, IOMMU
 * domain, timing resources, and canonical GPU context block (device
 * d's management context is d<<20, its sessions d<<20 + 1 + ordinal;
 * device 0 reproduces the single-GPU canonical ids exactly). Every
 * session cold-boots its own machine: a HIX session creates its own
 * GPU enclave; baseline sessions model one MPS context pool per
 * device (the device's first session is its MPS leader).
 * Deterministic: same config + placement => same digest, ticks, and
 * per-session finishes at any worker count. More than 65535 sessions
 * is an InvalidArgument, rejected before any workload is built:
 * session indices name 16-bit UserCpu resources, and a device-0 HIX
 * session ordinal of 65535 would collide with the shard management
 * context. So is a machine whose MMIO window cannot hold
 * config.machine.gpuCount GPUs (os::Machine::checkLayout), also
 * before any workload is built, and a factory that returns no
 * workload, before any session boots.
 */
Result<PoolOutcome> runSessionPool(
    const RunConfig &config,
    const std::vector<PoolSession> &sessions);

/** Execute @p config once: runSessionPool() over config.users
 *  closed-batch sessions {device 0, admit 0, appId 0}. */
Result<RunOutcome> runWorkload(const RunConfig &config);

/** Convenience wrappers. */
Result<RunOutcome> runBaseline(
    const std::function<std::unique_ptr<Workload>()> &factory,
    int users = 1);
Result<RunOutcome> runHix(
    const std::function<std::unique_ptr<Workload>()> &factory,
    int users = 1);

}  // namespace hix::workloads

#endif  // HIX_WORKLOADS_RUNNER_H_
