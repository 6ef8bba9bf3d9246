/**
 * @file
 * Greedy list scheduler for op-DAG traces.
 *
 * Given a Trace (possibly merged from several users), the scheduler
 * computes start/finish times under two constraints: an op starts
 * only after all its dependencies finish, and each resource serves
 * one op at a time. GPU-side ops carry a GPU context id; when the GPU
 * compute engine switches context the configured switch cost (plus
 * optional scrub time) is charged, modelling Section 4.5 of the
 * paper. An op whose context differs from the engine's current one
 * has the switch penalty folded into its effective start time, so the
 * engine keeps serving the resident context while it has pending
 * work — the Fermi policy the paper describes.
 *
 * Two engines compute the same schedule:
 *
 *  - schedule() is the production O(n log n) engine: per-resource
 *    pending queues feed a global priority queue holding one
 *    versioned candidate per resource, keyed by (effective dispatch
 *    time, resident-context tie-break, op id).
 *  - scheduleReference() is the original O(n · ready) scan, kept as
 *    the executable specification; the golden-equivalence tests
 *    assert the two produce bit-identical results.
 *
 * The multi-user runner merges every session's shard into one Trace
 * and scores it with schedule(); there is no incremental or
 * per-shard engine.
 */

#ifndef HIX_SIM_SCHEDULER_H_
#define HIX_SIM_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/types.h"
#include "sim/resource.h"
#include "sim/trace.h"

namespace hix::sim
{

/** Scheduler knobs. */
struct SchedulerConfig
{
    /** GPU context-switch cost on the compute engine, in ticks. */
    Tick gpuCtxSwitchTicks = 0;
};

/** Which scheduling engine scores a run (both bit-identical). */
enum class SchedulerEngine : std::uint8_t
{
    Fast,       //!< schedule(): O(n log n) production engine
    Reference,  //!< scheduleReference(): executable specification
};

/** Per-resource utilisation summary. */
struct ResourceUsage
{
    Tick busy = 0;      //!< total service time
    Tick lastFree = 0;  //!< when the resource goes idle for good
    std::uint64_t ops = 0;
};

/** Output of a scheduling run. */
struct ScheduleResult
{
    /** Completion time of the last op. */
    Tick makespan = 0;
    /** Start time per op (indexed by OpId). */
    std::vector<Tick> start;
    /** Finish time per op (indexed by OpId). */
    std::vector<Tick> finish;
    /** Utilisation per resource. */
    std::map<ResourceId, ResourceUsage> usage;
    /** Busy time per op kind (sum of durations as scheduled). */
    std::map<OpKind, Tick> kindBusy;
    /** Number of GPU context switches charged. */
    std::uint64_t gpuCtxSwitches = 0;

    /**
     * Finish time of a specific op (for per-phase measurements).
     * Returns std::nullopt for an op id outside the schedule instead
     * of a silent 0, which reads like "finished at tick 0" and has
     * masked off-by-one probe bugs in benches.
     */
    std::optional<Tick>
    finishOf(OpId id) const
    {
        if (id < finish.size())
            return finish[id];
        return std::nullopt;
    }
};

/** Compute a schedule for @p trace (O(n log n) engine). */
ScheduleResult schedule(const Trace &trace,
                        const SchedulerConfig &config = {});

/**
 * The original quadratic engine, kept as the executable
 * specification of the scheduling policy. schedule() must produce a
 * bit-identical ScheduleResult; tests/workloads/scheduler_golden_test.cc
 * enforces this on recorded workload traces.
 */
ScheduleResult scheduleReference(const Trace &trace,
                                 const SchedulerConfig &config = {});

/** Dispatch on a SchedulerEngine knob (RunConfig::schedulerEngine). */
ScheduleResult scheduleWith(SchedulerEngine engine, const Trace &trace,
                            const SchedulerConfig &config = {});

}  // namespace hix::sim

#endif  // HIX_SIM_SCHEDULER_H_
